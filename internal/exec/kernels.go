package exec

import (
	"math"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Reference fp32 kernels. Contracts shared by every kernel in this file and
// the integer kernels in kernels_q8.go:
//
//   - Layouts follow the graph builder: activations NHWC, conv kernels HWIO
//     [kh, kw, inC, outC], depthwise kernels [kh, kw, C, mult] (output
//     channel c*mult+m), transpose-conv kernels [kh, kw, outC, inC], dense
//     weights [inF, units] row-major.
//   - dst and src never alias (the arena planner keeps a layer's output
//     disjoint from its live inputs).
//   - Float reductions have a fixed order: the conv and depthwise MAC
//     kernels add their terms in (kh, kw, ic) order, dense in feature
//     order. Loops over independent outputs may be interchanged or blocked
//     (the MAC kernels keep output channels innermost, over contiguous
//     weight rows), but a float reduction is never split or reordered,
//     because float addition is not associative. Integer reductions are
//     exact (int64 sums truncated to int32 equal the wrapped int32 sum in
//     any order), so the integer kernels split, group and reorder them
//     freely. Either way results are bitwise reproducible across runs,
//     workers and pool sizes — the property the determinism tests pin down
//     — and bit-identical to the textbook loop nests kept as test oracles.
//   - Kernels never allocate; any staging space comes from the caller or
//     is a fixed-size stack array.
//
// SAME padding follows the TensorFlow convention: total padding
// max(0, (out-1)*stride + effectiveKernel - in), split with the smaller
// half leading.

// padOrigin resolves the top/left padding for a conv/pool layer, taking the
// effective (dilated) kernel extent.
func padOrigin(a graph.Attrs, inH, inW, outH, outW, effKH, effKW int) (padT, padL int) {
	if !a.PadSame {
		return a.PadH, a.PadW
	}
	if t := (outH-1)*a.StrideH + effKH - inH; t > 0 {
		padT = t / 2
	}
	if l := (outW-1)*a.StrideW + effKW - inW; l > 0 {
		padL = l / 2
	}
	return padT, padL
}

func dilationOf(a graph.Attrs) int {
	if a.Dilation > 1 {
		return a.Dilation
	}
	return 1
}

// conv2dF32 is convolution over HWIO weights. For each output pixel it
// walks the valid taps in (kh, kw, ic) order and broadcasts each input
// scalar over that tap's contiguous row of outC weights, accumulating in
// the output row itself.
func conv2dF32(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				acc := dstN[(oh*outW+ow)*outC:][:outC]
				clear(acc)
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
						x := srcN[(ih*inW+iw)*inC:][:inC]
						wt := w[(kh*a.KernelW+kw)*inC*outC:]
						for ic, xv := range x {
							row := wt[ic*outC:][:len(acc)]
							for oc, wv := range row {
								acc[oc] += xv * wv
							}
						}
					}
				}
				addBias(acc, bias)
			}
		}
	}
}

// conv2dW8 is the hybrid variant: float activations against the graph's
// raw int8 weight bytes (read in place, never copied), rescaled by the
// per-tensor weight scale in the epilogue.
func conv2dW8(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				acc := dstN[(oh*outW+ow)*outC:][:outC]
				clear(acc)
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
						x := srcN[(ih*inW+iw)*inC:][:inC]
						wt := w[(kh*a.KernelW+kw)*inC*outC:]
						for ic, xv := range x {
							row := wt[ic*outC:][:len(acc)]
							for oc, wq := range row {
								acc[oc] += xv * float32(int8(wq))
							}
						}
					}
				}
				scaleBias(acc, wScale, bias)
			}
		}
	}
}

// addBias is the fp32 epilogue acc + bias, in place (nil bias: no-op).
func addBias(acc, bias []float32) {
	if bias == nil {
		return
	}
	for oc, b := range bias[:len(acc)] {
		acc[oc] += b
	}
}

// scaleBias is the hybrid epilogue acc·wScale + bias, in place.
func scaleBias(acc []float32, wScale float32, bias []float32) {
	for oc, v := range acc {
		v *= wScale
		if bias != nil {
			v += bias[oc]
		}
		acc[oc] = v
	}
}

// dwConvF32 is depthwise convolution: each input channel convolved with its
// own kernel column; output channel c*mult+m. Per output pixel the taps run
// in (kh, kw) order, each one a pass over the contiguous [C, mult] weight
// row.
func dwConvF32(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	mult := outC / inC
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				acc := dstN[(oh*outW+ow)*outC:][:inC*mult]
				clear(acc)
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
						x := srcN[(ih*inW+iw)*inC:][:inC]
						row := w[(kh*a.KernelW+kw)*len(acc):][:len(acc)]
						if mult == 1 {
							x = x[:len(acc)]
							for c, wv := range row {
								acc[c] += x[c] * wv
							}
						} else {
							for oc, wv := range row {
								acc[oc] += x[oc/mult] * wv
							}
						}
					}
				}
				addBias(acc, bias)
			}
		}
	}
}

// dwConvW8 is the hybrid depthwise variant (float activations, raw int8
// weights).
func dwConvW8(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	mult := outC / inC
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				acc := dstN[(oh*outW+ow)*outC:][:inC*mult]
				clear(acc)
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
						x := srcN[(ih*inW+iw)*inC:][:inC]
						row := w[(kh*a.KernelW+kw)*len(acc):][:len(acc)]
						if mult == 1 {
							x = x[:len(acc)]
							for c, wq := range row {
								acc[c] += x[c] * float32(int8(wq))
							}
						} else {
							for oc, wq := range row {
								acc[oc] += x[oc/mult] * float32(int8(wq))
							}
						}
					}
				}
				scaleBias(acc, wScale, bias)
			}
		}
	}
}

// denseF32 is the fully connected layer over flattened features: each
// input feature broadcast over its contiguous row of units weights.
func denseF32(dst, src, w, bias []float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		acc := dst[n*units : (n+1)*units]
		clear(acc)
		for f, xv := range x {
			row := w[f*units:][:len(acc)]
			for u, wv := range row {
				acc[u] += xv * wv
			}
		}
		addBias(acc, bias)
	}
}

func denseW8(dst, src []float32, w []byte, bias []float32, wScale float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		acc := dst[n*units : (n+1)*units]
		clear(acc)
		for f, xv := range x {
			row := w[f*units:][:len(acc)]
			for u, wq := range row {
				acc[u] += xv * float32(int8(wq))
			}
		}
		scaleBias(acc, wScale, bias)
	}
}

// transposeConv2dF32 scatters each input pixel through the kernel into the
// stride-upsampled output (dst must be pre-zeroed by the caller). Kernel
// layout [kh, kw, outC, inC]; top/left origin (k-stride)/2 centres the
// kernel so output spatial dims are exactly in*stride.
func transposeConv2dF32(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	padT := (a.KernelH - a.StrideH) / 2
	padL := (a.KernelW - a.StrideW) / 2
	if padT < 0 {
		padT = 0
	}
	if padL < 0 {
		padL = 0
	}
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for ih := 0; ih < inH; ih++ {
			for iw := 0; iw < inW; iw++ {
				si := (ih*inW + iw) * inC
				for kh := 0; kh < a.KernelH; kh++ {
					oh := ih*a.StrideH + kh - padT
					if oh < 0 || oh >= outH {
						continue
					}
					for kw := 0; kw < a.KernelW; kw++ {
						ow := iw*a.StrideW + kw - padL
						if ow < 0 || ow >= outW {
							continue
						}
						do := (oh*outW + ow) * outC
						for oc := 0; oc < outC; oc++ {
							wi := ((kh*a.KernelW+kw)*outC + oc) * inC
							var acc float32
							for ic := 0; ic < inC; ic++ {
								acc += srcN[si+ic] * w[wi+ic]
							}
							dstN[do+oc] += acc
						}
					}
				}
			}
		}
		if bias != nil {
			for i := 0; i < outH*outW; i++ {
				for oc := 0; oc < outC; oc++ {
					dstN[i*outC+oc] += bias[oc]
				}
			}
		}
	}
}

// maxPoolF32 / avgPoolF32: window reductions. Average counts only in-bounds
// taps (TFLite's padding-excluded semantics), so SAME-padded borders are
// true means of their valid window.
func maxPoolF32(dst, src []float32, in, out graph.Shape, a graph.Attrs) {
	poolF32(dst, src, in, out, a, true)
}

func avgPoolF32(dst, src []float32, in, out graph.Shape, a graph.Attrs) {
	poolF32(dst, src, in, out, a, false)
}

func poolF32(dst, src []float32, in, out graph.Shape, a graph.Attrs, max bool) {
	inH, inW, c := in[1], in[2], in[3]
	outH, outW := out[1], out[2]
	padT, padL := padOrigin(a, inH, inW, outH, outW, a.KernelH, a.KernelW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*c:]
		dstN := dst[n*outH*outW*c:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * c
				for ch := 0; ch < c; ch++ {
					best := float32(math.Inf(-1))
					var sum float32
					count := 0
					for kh := 0; kh < a.KernelH; kh++ {
						ih := oh*a.StrideH - padT + kh
						if ih < 0 || ih >= inH {
							continue
						}
						for kw := 0; kw < a.KernelW; kw++ {
							iw := ow*a.StrideW - padL + kw
							if iw < 0 || iw >= inW {
								continue
							}
							v := srcN[(ih*inW+iw)*c+ch]
							if v > best {
								best = v
							}
							sum += v
							count++
						}
					}
					if max {
						dstN[do+ch] = best
					} else if count > 0 {
						dstN[do+ch] = sum / float32(count)
					} else {
						dstN[do+ch] = 0
					}
				}
			}
		}
	}
}

func globalAvgPoolF32(dst, src []float32, in graph.Shape) {
	h, w, c := in[1], in[2], in[3]
	hw := h * w
	for n := 0; n < in[0]; n++ {
		srcN := src[n*hw*c:]
		dstN := dst[n*c:]
		for ch := 0; ch < c; ch++ {
			var sum float32
			for i := 0; i < hw; i++ {
				sum += srcN[i*c+ch]
			}
			dstN[ch] = sum / float32(hw)
		}
	}
}

// applyActivation runs a unary activation in place. channels is the last
// dimension (PRelu's per-channel alpha axis); alpha is nil for the default
// 0.25 slope.
func applyActivation(x []float32, op graph.OpType, alpha []float32, channels int) {
	switch op {
	case graph.OpReLU:
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			}
		}
	case graph.OpReLU6:
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			} else if v > 6 {
				x[i] = 6
			}
		}
	case graph.OpSigmoid, graph.OpLogistic:
		for i, v := range x {
			x[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case graph.OpTanh:
		for i, v := range x {
			x[i] = float32(math.Tanh(float64(v)))
		}
	case graph.OpHardSwish:
		for i, v := range x {
			r := v + 3
			if r < 0 {
				r = 0
			} else if r > 6 {
				r = 6
			}
			x[i] = v * r / 6
		}
	case graph.OpPRelu:
		if channels <= 0 {
			channels = 1
		}
		for i, v := range x {
			if v < 0 {
				a := float32(0.25)
				if len(alpha) == 1 {
					a = alpha[0]
				} else if len(alpha) > 0 {
					a = alpha[i%channels]
				}
				x[i] = v * a
			}
		}
	case graph.OpSoftmax:
		softmaxF32(x, channels)
	}
}

// softmaxF32 normalises each row of the trailing axis with the usual
// max-subtraction for stability.
func softmaxF32(x []float32, lastDim int) {
	if lastDim <= 0 || len(x)%lastDim != 0 {
		lastDim = len(x)
	}
	for r := 0; r+lastDim <= len(x); r += lastDim {
		row := x[r : r+lastDim]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			row[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range row {
			row[i] *= inv
		}
	}
}

// batchNormF32 applies the folded affine y = γ·x + β over the last axis
// (nil γ/β mean identity — graphs stripped by DetachWeights still run).
func batchNormF32(dst, src, gamma, beta []float32, channels int) {
	if channels <= 0 {
		channels = 1
	}
	for i, v := range src {
		c := i % channels
		g, b := float32(1), float32(0)
		if gamma != nil {
			g = gamma[c%len(gamma)]
		}
		if beta != nil {
			b = beta[c%len(beta)]
		}
		dst[i] = v*g + b
	}
}

// addF32 / mulF32 support three broadcast forms the corpus uses: full
// elementwise, per-channel (len(b) == last dim) and scalar.
func addF32(dst, x, y []float32) { binaryF32(dst, x, y, false) }
func mulF32(dst, x, y []float32) { binaryF32(dst, x, y, true) }

func binaryF32(dst, x, y []float32, mul bool) {
	switch {
	case len(y) == len(x):
		if mul {
			for i := range x {
				dst[i] = x[i] * y[i]
			}
		} else {
			for i := range x {
				dst[i] = x[i] + y[i]
			}
		}
	case len(y) == 1:
		if mul {
			for i := range x {
				dst[i] = x[i] * y[0]
			}
		} else {
			for i := range x {
				dst[i] = x[i] + y[0]
			}
		}
	default: // per-channel broadcast over the trailing axis
		c := len(y)
		if mul {
			for i := range x {
				dst[i] = x[i] * y[i%c]
			}
		} else {
			for i := range x {
				dst[i] = x[i] + y[i%c]
			}
		}
	}
}

// resizeF32 is bilinear/nearest spatial resampling with half-pixel source
// mapping.
func resizeF32(dst, src []float32, in, out graph.Shape, bilinear bool) {
	inH, inW, c := in[1], in[2], in[3]
	outH, outW := out[1], out[2]
	scaleH := float64(inH) / float64(outH)
	scaleW := float64(inW) / float64(outW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*c:]
		dstN := dst[n*outH*outW*c:]
		for oh := 0; oh < outH; oh++ {
			sy := (float64(oh)+0.5)*scaleH - 0.5
			for ow := 0; ow < outW; ow++ {
				sx := (float64(ow)+0.5)*scaleW - 0.5
				do := (oh*outW + ow) * c
				if !bilinear {
					ih := clampInt(int(math.Round(sy)), 0, inH-1)
					iw := clampInt(int(math.Round(sx)), 0, inW-1)
					copy(dstN[do:do+c], srcN[(ih*inW+iw)*c:])
					continue
				}
				y0 := clampInt(int(math.Floor(sy)), 0, inH-1)
				y1 := clampInt(y0+1, 0, inH-1)
				x0 := clampInt(int(math.Floor(sx)), 0, inW-1)
				x1 := clampInt(x0+1, 0, inW-1)
				fy := float32(clampF(sy-float64(y0), 0, 1))
				fx := float32(clampF(sx-float64(x0), 0, 1))
				for ch := 0; ch < c; ch++ {
					v00 := srcN[(y0*inW+x0)*c+ch]
					v01 := srcN[(y0*inW+x1)*c+ch]
					v10 := srcN[(y1*inW+x0)*c+ch]
					v11 := srcN[(y1*inW+x1)*c+ch]
					top := v00 + (v01-v00)*fx
					bot := v10 + (v11-v10)*fx
					dstN[do+ch] = top + (bot-top)*fy
				}
			}
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// meanF32 reduces src over the given axes into dst (already shaped by
// inference; dst length is the product of kept dims). Uses fixed-size
// coordinate buffers so reduction never allocates.
func meanF32(dst, src []float32, in graph.Shape, reduceAxes []int) {
	for i := range dst {
		dst[i] = 0
	}
	rank := len(in)
	var reduce [8]bool
	count := 1
	for _, ax := range reduceAxes {
		if ax < 0 {
			ax += rank
		}
		if ax >= 0 && ax < rank {
			if !reduce[ax] {
				count *= in[ax]
			}
			reduce[ax] = true
		}
	}
	// Strides of the kept dims inside dst.
	var outStride [8]int
	stride := 1
	for i := rank - 1; i >= 0; i-- {
		if !reduce[i] {
			outStride[i] = stride
			stride *= in[i]
		}
	}
	var coord [8]int
	for si := range src {
		oi := 0
		for i := 0; i < rank; i++ {
			if !reduce[i] {
				oi += coord[i] * outStride[i]
			}
		}
		dst[oi] += src[si]
		for i := rank - 1; i >= 0; i-- {
			coord[i]++
			if coord[i] < in[i] {
				break
			}
			coord[i] = 0
		}
	}
	inv := float32(1) / float32(count)
	for i := range dst {
		dst[i] *= inv
	}
}

// concatF32 joins inputs along axis. outerElems/axisElems describe each
// source's decomposition: copy runs of axisLen·inner elements.
func concatF32(dst []float32, srcs [][]float32, shapes []graph.Shape, axis int) {
	rank := len(shapes[0])
	if axis < 0 {
		axis += rank
	}
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= shapes[0][i]
	}
	inner := 1
	for i := axis + 1; i < rank; i++ {
		inner *= shapes[0][i]
	}
	rowLen := 0
	for _, s := range shapes {
		rowLen += s[axis] * inner
	}
	for o := 0; o < outer; o++ {
		off := o * rowLen
		for si, src := range srcs {
			run := shapes[si][axis] * inner
			copy(dst[off:off+run], src[o*run:])
			off += run
		}
	}
}

// sliceF32 copies the Begin/Size window (Size -1 = to the end).
func sliceF32(dst, src []float32, in, out graph.Shape, begin []int) {
	rank := len(in)
	var b [8]int
	for i := 0; i < rank && i < len(begin); i++ {
		b[i] = begin[i]
	}
	var inStride [8]int
	stride := 1
	for i := rank - 1; i >= 0; i-- {
		inStride[i] = stride
		stride *= in[i]
	}
	inner := out[rank-1]
	var coord [8]int
	n := len(dst) / inner
	for r := 0; r < n; r++ {
		si := 0
		for i := 0; i < rank; i++ {
			si += (coord[i] + b[i]) * inStride[i]
		}
		copy(dst[r*inner:(r+1)*inner], src[si:si+inner])
		for i := rank - 2; i >= 0; i-- {
			coord[i]++
			if coord[i] < out[i] {
				break
			}
			coord[i] = 0
		}
	}
}

// padF32 zero-pads per the shapes.go contract: rank 4/3 pad axes 1 and 2 by
// PadH/PadW; rank 2 pads axis 1 by PadW.
func padF32(dst, src []float32, in, out graph.Shape, a graph.Attrs) {
	for i := range dst {
		dst[i] = 0
	}
	switch len(in) {
	case 4:
		h, w, c := in[1], in[2], in[3]
		ow := out[2]
		for n := 0; n < in[0]; n++ {
			for ih := 0; ih < h; ih++ {
				srcRow := src[((n*h+ih)*w)*c:]
				dstRow := dst[((n*out[1]+ih+a.PadH)*ow+a.PadW)*c:]
				copy(dstRow[:w*c], srcRow[:w*c])
			}
		}
	case 3:
		t, f := in[1], in[2]
		of := out[2]
		for n := 0; n < in[0]; n++ {
			for it := 0; it < t; it++ {
				copy(dst[((n*out[1]+it+a.PadH)*of + a.PadW):][:f], src[(n*t+it)*f:][:f])
			}
		}
	case 2:
		f := in[1]
		for n := 0; n < in[0]; n++ {
			copy(dst[n*out[1]+a.PadW:][:f], src[n*f:][:f])
		}
	default:
		copy(dst, src)
	}
}
