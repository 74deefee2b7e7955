package exec

import "github.com/gaugenn/gaugenn/internal/nn/graph"

// Full-integer MAC kernels. int8/uint8 activations times raw int8 weight
// bytes (read in place from the graph, never copied) accumulate exactly in
// int64; the epilogue truncates each sum to int32, which is the wrapped
// int32 sum of the textbook loop nest whatever order the terms were added
// in. These kernels therefore split, group and reorder reductions freely:
//
//   - conv2dQ8 (and denseQ8, a 1×1 conv over a 1×batch image) gathers the
//     nonzero activations of a pixel's whole (kh, kw, ic) patch, then adds
//     them four at a time over contiguous HWIO weight rows.
//   - Two horizontally adjacent output pixels share every multiply: their
//     activations are packed into the low and high 32-bit lanes of one
//     int64, so x·w computes both products at once. Packing is used only
//     when no lane's sum can leave int32 range, so the lanes never carry
//     into each other.
//   - dwConvQ8 adds four kernel taps per pass over the channel block.
//
// Each output pixel then goes through one fused epilogue (q8Epilogue):
// float32(acc)·outScale + bias, then ReLU/ReLU6 and the running max|r| in
// the same cache-resident block, so the caller can requantize the whole
// result in one more pass.

// macBlock is the number of int64 accumulators the integer kernels keep on
// the stack; they walk the output channels in blocks of this size.
const macBlock = 64

// gatherCap is the number of packed (activation, weight row) pairs
// conv2dQ8 stages on the stack before folding them into the accumulators.
const gatherCap = 512

// q8Src reads quantized activation bytes as zero-point-corrected integers.
// uint8 with zero point z reads as int8(b^0x80) - (z-128), so both dtypes
// share one sign-extending load, and the common cases (int8 with zero
// point 0, uint8 with 128) have zp 0.
type q8Src struct {
	flip byte
	zp   int64
}

func newQ8Src(zp int32, unsigned bool) q8Src {
	if unsigned {
		return q8Src{flip: 0x80, zp: int64(zp) - 128}
	}
	return q8Src{zp: int64(zp)}
}

func (q q8Src) val(b byte) int64 { return int64(int8(b^q.flip)) - q.zp }

// pairable reports whether a reduction of n terms fits a 32-bit lane:
// |x| ≤ 128+|zp| and |w| ≤ 128, so n·(128+|zp|)·128 < 2^31 keeps every
// partial sum of both lanes inside int32. (The zp bound keeps that product
// itself from overflowing.)
func (q q8Src) pairable(n int) bool {
	zp := q.zp
	if zp < 0 {
		zp = -zp
	}
	return zp < 1<<20 && int64(n)*(128+zp)*128 < 1<<31
}

// q8Epilogue turns int64 accumulators into real-valued outputs and tracks
// the layer's max|r| for dynamic requantization.
type q8Epilogue struct {
	scale float32 // inScale · wScale
	bias  []float32
	act   graph.OpType // ReLU/ReLU6 are folded here; anything else is the caller's
	max   float32
}

// store writes float32(int32(acc[j]))·scale + bias[oc0+j] to dst[j], then
// applies the activation and folds the block into the running max.
func (e *q8Epilogue) store(dst []float32, acc []int64, oc0 int) {
	dst = dst[:len(acc)]
	var top uint32
	if e.bias == nil {
		for j, a := range acc {
			r := float32(int32(a)) * e.scale
			dst[j] = r
			top = max(top, absBits(r))
		}
	} else {
		bias := e.bias[oc0:][:len(acc)]
		for j, a := range acc {
			r := float32(int32(a)) * e.scale
			r += bias[j]
			dst[j] = r
			top = max(top, absBits(r))
		}
	}
	e.max = max(e.max, activateTop(dst, e.act, top))
}

// highLanes replaces each packed accumulator with its high lane. The low
// lane's sum is in int32 range (see pairable), so subtracting it leaves the
// high lane's sum times 2^32 exactly.
func highLanes(acc []int64) {
	for j, a := range acc {
		acc[j] = (a - int64(int32(a))) >> 32
	}
}

// q8Gather stages a pixel (pair)'s nonzero patch activations with the
// offsets of their weight rows and folds them into acc.
type q8Gather struct {
	x   [gatherCap]int64
	off [gatherCap]int32
	n   int
	acc []int64
	w   []byte
	q   q8Src
}

// add stages one tap: x0 for the low-lane pixel, x1 (when non-nil) for the
// high-lane one, weight rows from wo in steps of rowStride. An absent pixel
// (nil slice) contributes zeros, as a padded tap does. Zero entries are
// written and then overwritten, which keeps the loop free of
// data-dependent branches.
func (g *q8Gather) add(x0, x1 []byte, wo, rowStride int) {
	n := max(len(x0), len(x1))
	for ic := 0; ic < n; ic++ {
		if g.n == gatherCap {
			g.flush()
		}
		var v int64
		if x0 != nil {
			v = g.q.val(x0[ic])
		}
		if x1 != nil {
			v += g.q.val(x1[ic]) << 32
		}
		k := g.n
		g.x[k] = v
		g.off[k] = int32(wo + ic*rowStride)
		if v != 0 {
			k++
		}
		g.n = k
	}
}

// flush adds every staged activation times its weight row into acc, four
// rows per pass.
func (g *q8Gather) flush() {
	acc, w := g.acc, g.w
	xs, offs := g.x[:g.n], g.off[:g.n]
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		x0, x1, x2, x3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		r0 := w[offs[i]:][:len(acc)]
		r1 := w[offs[i+1]:][:len(acc)]
		r2 := w[offs[i+2]:][:len(acc)]
		r3 := w[offs[i+3]:][:len(acc)]
		for j := range acc {
			acc[j] += x0*int64(int8(r0[j])) + x1*int64(int8(r1[j])) + x2*int64(int8(r2[j])) + x3*int64(int8(r3[j]))
		}
	}
	for ; i < len(xs); i++ {
		x, r := xs[i], w[offs[i]:][:len(acc)]
		for j := range acc {
			acc[j] += x * int64(int8(r[j]))
		}
	}
	g.n = 0
}

// conv2dQ8 is the full int8 convolution over HWIO weights. It writes the
// epilogue's real-valued outputs into dst (caller-provided float scratch)
// and returns their max|r|. act must be OpInvalid, OpReLU or OpReLU6.
func conv2dQ8(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType, in, out graph.Shape, a graph.Attrs) float32 {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	q := newQ8Src(srcZP, srcUnsigned)
	pair := q.pairable(a.KernelH * a.KernelW * inC)
	epi := q8Epilogue{scale: outScale, bias: bias, act: act}
	var blk [macBlock]int64
	g := q8Gather{w: w, q: q}
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				two := pair && ow+1 < outW
				do := (oh*outW + ow) * outC
				for oc0 := 0; oc0 < outC; oc0 += macBlock {
					acc := blk[:min(macBlock, outC-oc0)]
					clear(acc)
					g.acc = acc
					for kh := 0; kh < a.KernelH; kh++ {
						ih := oh*a.StrideH - padT + kh*dil
						if ih < 0 || ih >= inH {
							continue
						}
						row := srcN[ih*inW*inC:]
						for kw := 0; kw < a.KernelW; kw++ {
							iw := ow*a.StrideW - padL + kw*dil
							var x0, x1 []byte
							if iw >= 0 && iw < inW {
								x0 = row[iw*inC:][:inC]
							}
							if iw += a.StrideW; two && iw >= 0 && iw < inW {
								x1 = row[iw*inC:][:inC]
							}
							if x0 != nil || x1 != nil {
								g.add(x0, x1, (kh*a.KernelW+kw)*inC*outC+oc0, outC)
							}
						}
					}
					g.flush()
					epi.store(dstN[do+oc0:], acc, oc0)
					if two {
						highLanes(acc)
						epi.store(dstN[do+outC+oc0:], acc, oc0)
					}
				}
				if two {
					ow++
				}
			}
		}
	}
	return epi.max
}

// denseQ8 is the full int8 fully connected layer: a 1×1 convolution over
// a 1×batch image of inF channels, with [inF, units] as its HWIO kernel.
func denseQ8(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType, batch, inF, units int) float32 {
	one := graph.Attrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	return conv2dQ8(dst, src, srcZP, srcUnsigned, w, bias, outScale, act,
		graph.Shape{1, 1, batch, inF}, graph.Shape{1, 1, batch, units}, one)
}

// dwConvQ8 is the full int8 depthwise convolution (output channel
// c*mult+m over [kh, kw, C, mult] weights), with the same epilogue and
// return value as conv2dQ8. With a channel multiplier of 1 and int8
// activations at zero point 0 (the common case), valid taps are queued and
// added four per pass over the channel block; otherwise each tap is one
// pass that reads activations through q8Src.
func dwConvQ8(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType, in, out graph.Shape, a graph.Attrs) float32 {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	mult := outC / inC
	chans := inC * mult
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	q := newQ8Src(srcZP, srcUnsigned)
	grouped := mult == 1 && q == (q8Src{})
	epi := q8Epilogue{scale: outScale, bias: bias, act: act}
	var blk [macBlock]int64
	var xo, wo [4]int
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * outC
				for c0 := 0; c0 < chans; c0 += macBlock {
					acc := blk[:min(macBlock, chans-c0)]
					clear(acc)
					nt := 0
					for kh := 0; kh < a.KernelH; kh++ {
						ih := oh*a.StrideH - padT + kh*dil
						if ih < 0 || ih >= inH {
							continue
						}
						for kw := 0; kw < a.KernelW; kw++ {
							iw := ow*a.StrideW - padL + kw*dil
							if iw < 0 || iw >= inW {
								continue
							}
							xi, wi := (ih*inW+iw)*inC, (kh*a.KernelW+kw)*chans+c0
							if grouped {
								xo[nt], wo[nt] = xi+c0, wi
								if nt++; nt == 4 {
									dwTaps4(acc, srcN, w, &xo, &wo)
									nt = 0
								}
								continue
							}
							x, row := srcN[xi:][:inC], w[wi:][:len(acc)]
							for j, wq := range row {
								acc[j] += q.val(x[(c0+j)/mult]) * int64(int8(wq))
							}
						}
					}
					for t := 0; t < nt; t++ {
						x, row := srcN[xo[t]:][:len(acc)], w[wo[t]:][:len(acc)]
						for j, wq := range row {
							acc[j] += int64(int8(x[j])) * int64(int8(wq))
						}
					}
					epi.store(dstN[do+c0:], acc, c0)
				}
			}
		}
	}
	return epi.max
}

// dwTaps4 adds four depthwise taps of int8 activations at zero point 0
// (channel-aligned activation and weight rows at xo[t], wo[t]) into acc in
// one pass.
func dwTaps4(acc []int64, src, w []byte, xo, wo *[4]int) {
	x0, w0 := src[xo[0]:][:len(acc)], w[wo[0]:][:len(acc)]
	x1, w1 := src[xo[1]:][:len(acc)], w[wo[1]:][:len(acc)]
	x2, w2 := src[xo[2]:][:len(acc)], w[wo[2]:][:len(acc)]
	x3, w3 := src[xo[3]:][:len(acc)], w[wo[3]:][:len(acc)]
	for j := range acc {
		acc[j] += int64(int8(x0[j]))*int64(int8(w0[j])) +
			int64(int8(x1[j]))*int64(int8(w1[j])) +
			int64(int8(x2[j]))*int64(int8(w2[j])) +
			int64(int8(x3[j]))*int64(int8(w3[j]))
	}
}
