package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Test-only oracles: the textbook MAC loop nests (output element outermost,
// reduction innermost) that the production kernels in kernels.go and
// kernels_q8.go replaced. They are kept verbatim apart from the Ref suffix
// so that TestMACKernelsMatchReference can check the rewritten kernels bit
// for bit; requantizeRef is the math.RoundToEven requantizer that
// TestRequantizeMatchesReference checks the branch-free one against.

// quantVal reads one quantized activation byte as a zero-point-corrected
// signed value.
func quantVal(b byte, unsigned bool, zp int32) int32 {
	if unsigned {
		return int32(b) - zp
	}
	return int32(int8(b)) - zp
}

// conv2dF32Ref is the direct (non-im2col) convolution. One fused loop nest:
// for every output element, accumulate kernel × input-window products.
func conv2dF32Ref(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
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
				do := (oh*outW + ow) * outC
				for oc := 0; oc < outC; oc++ {
					var acc float32
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
							si := (ih*inW + iw) * inC
							wi := ((kh*a.KernelW+kw)*inC)*outC + oc
							for ic := 0; ic < inC; ic++ {
								acc += srcN[si+ic] * w[wi+ic*outC]
							}
						}
					}
					if bias != nil {
						acc += bias[oc]
					}
					dstN[do+oc] = acc
				}
			}
		}
	}
}

// conv2dW8Ref is the hybrid variant: float activations against the graph's
// raw int8 weight bytes (read in place, never copied), rescaled by the
// per-tensor weight scale in the epilogue.
func conv2dW8Ref(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
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
				do := (oh*outW + ow) * outC
				for oc := 0; oc < outC; oc++ {
					var acc float32
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
							si := (ih*inW + iw) * inC
							wi := ((kh*a.KernelW+kw)*inC)*outC + oc
							for ic := 0; ic < inC; ic++ {
								acc += srcN[si+ic] * float32(int8(w[wi+ic*outC]))
							}
						}
					}
					acc *= wScale
					if bias != nil {
						acc += bias[oc]
					}
					dstN[do+oc] = acc
				}
			}
		}
	}
}

// conv2dQ8Ref is the full int8 path: integer MAC over quantized activations
// and raw int8 weight bytes, with a float epilogue
// real = acc · inScale · wScale + bias staged into dst (caller-provided
// float scratch) for dynamic requantization.
func conv2dQ8Ref(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, in, out graph.Shape, a graph.Attrs) {
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
				do := (oh*outW + ow) * outC
				for oc := 0; oc < outC; oc++ {
					var acc int32
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
							si := (ih*inW + iw) * inC
							wi := ((kh*a.KernelW+kw)*inC)*outC + oc
							for ic := 0; ic < inC; ic++ {
								acc += quantVal(srcN[si+ic], srcUnsigned, srcZP) * int32(int8(w[wi+ic*outC]))
							}
						}
					}
					r := float32(acc) * outScale
					if bias != nil {
						r += bias[oc]
					}
					dstN[do+oc] = r
				}
			}
		}
	}
}

// dwConvF32Ref is depthwise convolution: each input channel convolved with its
// own kernel column; output channel c*mult+m.
func dwConvF32Ref(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
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
				do := (oh*outW + ow) * outC
				for c := 0; c < inC; c++ {
					for m := 0; m < mult; m++ {
						var acc float32
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
								acc += srcN[(ih*inW+iw)*inC+c] * w[((kh*a.KernelW+kw)*inC+c)*mult+m]
							}
						}
						oc := c*mult + m
						if bias != nil {
							acc += bias[oc]
						}
						dstN[do+oc] = acc
					}
				}
			}
		}
	}
}

// dwConvW8Ref is the hybrid depthwise variant (float activations, raw int8
// weights).
func dwConvW8Ref(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
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
				do := (oh*outW + ow) * outC
				for c := 0; c < inC; c++ {
					for m := 0; m < mult; m++ {
						var acc float32
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
								acc += srcN[(ih*inW+iw)*inC+c] * float32(int8(w[((kh*a.KernelW+kw)*inC+c)*mult+m]))
							}
						}
						oc := c*mult + m
						acc *= wScale
						if bias != nil {
							acc += bias[oc]
						}
						dstN[do+oc] = acc
					}
				}
			}
		}
	}
}

// dwConvQ8Ref is the full int8 depthwise path (integer MAC, float epilogue
// into scratch).
func dwConvQ8Ref(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, in, out graph.Shape, a graph.Attrs) {
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
				do := (oh*outW + ow) * outC
				for c := 0; c < inC; c++ {
					for m := 0; m < mult; m++ {
						var acc int32
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
								acc += quantVal(srcN[(ih*inW+iw)*inC+c], srcUnsigned, srcZP) * int32(int8(w[((kh*a.KernelW+kw)*inC+c)*mult+m]))
							}
						}
						oc := c*mult + m
						r := float32(acc) * outScale
						if bias != nil {
							r += bias[oc]
						}
						dstN[do+oc] = r
					}
				}
			}
		}
	}
}

// denseF32Ref is the fully connected layer over flattened features.
func denseF32Ref(dst, src, w, bias []float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		for u := 0; u < units; u++ {
			var acc float32
			for f := 0; f < inF; f++ {
				acc += x[f] * w[f*units+u]
			}
			if bias != nil {
				acc += bias[u]
			}
			y[u] = acc
		}
	}
}

func denseW8Ref(dst, src []float32, w []byte, bias []float32, wScale float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		for u := 0; u < units; u++ {
			var acc float32
			for f := 0; f < inF; f++ {
				acc += x[f] * float32(int8(w[f*units+u]))
			}
			acc *= wScale
			if bias != nil {
				acc += bias[u]
			}
			y[u] = acc
		}
	}
}

func denseQ8Ref(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		for u := 0; u < units; u++ {
			var acc int32
			for f := 0; f < inF; f++ {
				acc += quantVal(x[f], srcUnsigned, srcZP) * int32(int8(w[f*units+u]))
			}
			r := float32(acc) * outScale
			if bias != nil {
				r += bias[u]
			}
			y[u] = r
		}
	}
}

// requantizeRef is the requantizer the branch-free one replaced.
func requantizeRef(dst []byte, src []float32, dt graph.DType, scale float64, zp int32) {
	inv := 0.0
	if scale != 0 {
		inv = 1 / scale
	}
	switch dt {
	case graph.UInt8:
		for i, v := range src {
			q := int32(math.RoundToEven(float64(v)*inv)) + zp
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
			dst[i] = byte(q)
		}
	case graph.Int16:
		for i, v := range src {
			q := int32(math.RoundToEven(float64(v)*inv)) + zp
			if q < -32768 {
				q = -32768
			} else if q > 32767 {
				q = 32767
			}
			binary.LittleEndian.PutUint16(dst[i*2:], uint16(int16(q)))
		}
	default: // Int8
		for i, v := range src {
			q := int32(math.RoundToEven(float64(v)*inv)) + zp
			if q < -128 {
				q = -128
			} else if q > 127 {
				q = 127
			}
			dst[i] = byte(int8(q))
		}
	}
}

// TestRequantizeMatchesReference checks the branch-free requantizer byte
// for byte against requantizeRef: halfway values on both sides of zero,
// ±0, ±Inf, NaN, the clamp edges of every dtype, values past 2^51 where
// the rounding shift is no longer exact, and a random sweep.
func TestRequantizeMatchesReference(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	table := []float32{0, negZero, inf, -inf, nan, -nan,
		0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 127.5, -127.5, 128.5, -128.5,
		127.49999, 127.50001, 254.5, 255.5, 256, -1, 32766.5, 32767.5, -32767.5, -32768.5,
		0x1p31, -0x1p31, 0x1p51 + 0.5, -0x1p51 - 0.5, 0x1p52 + 1, 0x1p60, -0x1p60,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-30}
	rng := rand.New(rand.NewSource(20261018))
	for i := 0; i < 4096; i++ {
		v := float32(rng.NormFloat64() * 64)
		if i%4 == 0 {
			v = float32(math.Round(float64(v)*2) / 2) // an exact halfway or integer value
		}
		table = append(table, v)
	}
	for _, dt := range []graph.DType{graph.Int8, graph.UInt8, graph.Int16} {
		for _, scale := range []float64{1, 0.5, 1.0 / 127, 3e-3, 0x1p-60, 0} {
			for _, zp := range []int32{0, 128, -3} {
				got := make([]byte, len(table)*dt.Size())
				want := make([]byte, len(table)*dt.Size())
				requantize(got, table, dt, scale, zp)
				requantizeRef(want, table, dt, scale, zp)
				for i := range want {
					if got[i] != want[i] {
						e := i / dt.Size()
						t.Fatalf("%s scale=%g zp=%d: value %v: byte %d = %#02x, oracle %#02x",
							dt, scale, zp, table[e], i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMACKernelsMatchReference checks every MAC kernel against its oracle
// bit for bit over a seeded sweep of strides, dilations, paddings, batch
// sizes and channel counts (1 to 5, so every four-way gather remainder
// occurs, and above the accumulator block size), in all three weight
// regimes, with int8 and zero-point-128 uint8 activations. Activations
// include exact zeros and all-zero patches, and some float weights are
// +Inf, so a float kernel that skipped a zero term (0·Inf = NaN) fails.
// The integer kernels are checked with each epilogue they fuse (none,
// ReLU, ReLU6) against the oracle followed by applyActivation and maxAbs.
func TestMACKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260417))
	chans := []int{1, 2, 3, 4, 5, macBlock + 3}
	type padding struct {
		name string
		same bool
		pad  int
	}
	paddings := []padding{{"valid", false, 0}, {"same", true, 0}, {"explicit", false, 1}}
	for _, batch := range []int{1, 3} {
		for _, stride := range []int{1, 2} {
			for _, dil := range []int{1, 2} {
				for _, pd := range paddings {
					for _, inC := range chans {
						a := graph.Attrs{
							KernelH: 1 + rng.Intn(3), KernelW: 1 + rng.Intn(3),
							StrideH: stride, StrideW: stride, Dilation: dil,
							PadSame: pd.same, PadH: pd.pad, PadW: pd.pad,
						}
						in := graph.Shape{batch, 5 + rng.Intn(4), 5 + rng.Intn(4), inC}
						oh, ow := convOut(in[1], a.KernelH, a), convOut(in[2], a.KernelW, a)
						outCs := []int{1, 5, 2*macBlock + 1}
						if inC == 2 || inC == 4 {
							outCs = outCs[1:2] // extra gather remainders; the sweep stays fast
						}
						for _, outC := range outCs {
							name := fmt.Sprintf("conv/n%d/s%d/d%d/%s/in%d/out%d", batch, stride, dil, pd.name, inC, outC)
							out := graph.Shape{batch, oh, ow, outC}
							checkMAC(t, rng, name, in, out, a.KernelH*a.KernelW*inC*outC, outC,
								func(d, s, w, b []float32) { conv2dF32(d, s, w, b, in, out, a) },
								func(d, s, w, b []float32) { conv2dF32Ref(d, s, w, b, in, out, a) },
								func(d, s []float32, w []byte, b []float32, sc float32) { conv2dW8(d, s, w, b, sc, in, out, a) },
								func(d, s []float32, w []byte, b []float32, sc float32) { conv2dW8Ref(d, s, w, b, sc, in, out, a) },
								func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32, act graph.OpType) float32 {
									return conv2dQ8(d, s, zp, u, w, b, sc, act, in, out, a)
								},
								func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32) {
									conv2dQ8Ref(d, s, zp, u, w, b, sc, in, out, a)
								})
						}
						for _, mult := range []int{1, 2} {
							name := fmt.Sprintf("dwconv/n%d/s%d/d%d/%s/c%d/mult%d", batch, stride, dil, pd.name, inC, mult)
							out := graph.Shape{batch, oh, ow, inC * mult}
							checkMAC(t, rng, name, in, out, a.KernelH*a.KernelW*inC*mult, inC*mult,
								func(d, s, w, b []float32) { dwConvF32(d, s, w, b, in, out, a) },
								func(d, s, w, b []float32) { dwConvF32Ref(d, s, w, b, in, out, a) },
								func(d, s []float32, w []byte, b []float32, sc float32) { dwConvW8(d, s, w, b, sc, in, out, a) },
								func(d, s []float32, w []byte, b []float32, sc float32) { dwConvW8Ref(d, s, w, b, sc, in, out, a) },
								func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32, act graph.OpType) float32 {
									return dwConvQ8(d, s, zp, u, w, b, sc, act, in, out, a)
								},
								func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32) {
									dwConvQ8Ref(d, s, zp, u, w, b, sc, in, out, a)
								})
						}
					}
				}
			}
		}
		for _, inF := range chans {
			for _, units := range []int{1, 5, 2*macBlock + 1} {
				name := fmt.Sprintf("dense/n%d/in%d/units%d", batch, inF, units)
				in, out := graph.Shape{batch, inF}, graph.Shape{batch, units}
				checkMAC(t, rng, name, in, out, inF*units, units,
					func(d, s, w, b []float32) { denseF32(d, s, w, b, batch, inF, units) },
					func(d, s, w, b []float32) { denseF32Ref(d, s, w, b, batch, inF, units) },
					func(d, s []float32, w []byte, b []float32, sc float32) { denseW8(d, s, w, b, sc, batch, inF, units) },
					func(d, s []float32, w []byte, b []float32, sc float32) { denseW8Ref(d, s, w, b, sc, batch, inF, units) },
					func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32, act graph.OpType) float32 {
						return denseQ8(d, s, zp, u, w, b, sc, act, batch, inF, units)
					},
					func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32) {
						denseQ8Ref(d, s, zp, u, w, b, sc, batch, inF, units)
					})
			}
		}
	}
}

// convOut is the graph package's conv output extent for one spatial axis
// (the sweep uses equal H and W strides and padding).
func convOut(in, kernel int, a graph.Attrs) int {
	if a.PadSame {
		return (in + a.StrideH - 1) / a.StrideH
	}
	eff := (kernel-1)*dilationOf(a) + 1
	return (in+2*a.PadH-eff)/a.StrideH + 1
}

type (
	f32Kernel   func(dst, src, w, bias []float32)
	w8Kernel    func(dst, src []float32, w []byte, bias []float32, wScale float32)
	q8Kernel    func(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType) float32
	q8RefKernel func(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32)
)

// checkMAC runs one kernel shape through the fp32, hybrid and integer
// regimes (with and without bias) and compares each kernel's output with
// its oracle's by bit pattern. The integer kernels also run with a bias
// holding NaN and +Inf and with a zero point large enough to wrap int32
// sums, and their fused epilogue is compared with checkQ8Epilogue.
func checkMAC(t *testing.T, rng *rand.Rand, name string, in, out graph.Shape, wLen, channels int,
	f32, f32Ref f32Kernel, w8, w8Ref w8Kernel, q8 q8Kernel, q8Ref q8RefKernel) {
	t.Helper()
	inLen, outLen := int(in.Elements()), int(out.Elements())
	src := make([]float32, inLen)
	for i := range src {
		if rng.Intn(5) > 0 { // one activation in five stays an exact zero
			src[i] = rng.Float32()*2 - 1
		}
	}
	wf := make([]float32, wLen)
	for i := range wf {
		wf[i] = rng.Float32()*2 - 1
	}
	if rng.Intn(2) == 0 {
		wf[rng.Intn(wLen)] = float32(math.Inf(1))
	}
	wq := make([]byte, wLen)
	rng.Read(wq)
	bias := make([]float32, channels)
	for i := range bias {
		bias[i] = rng.Float32()*2 - 1
	}
	scale := rng.Float32()/64 + 1e-4
	got, want, ref := make([]float32, outLen), make([]float32, outLen), make([]float32, outLen)
	compare := func(regime string) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s %s: out[%d] = %v (%#08x), oracle %v (%#08x)", name, regime, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	poison := func() {
		for i := range got {
			got[i], want[i] = float32(math.NaN()), float32(math.NaN())
		}
	}
	for _, b := range [][]float32{nil, bias} {
		poison()
		f32(got, src, wf, b)
		f32Ref(want, src, wf, b)
		compare(fmt.Sprintf("fp32 bias=%v", b != nil))

		poison()
		w8(got, src, wq, b, scale)
		w8Ref(want, src, wq, b, scale)
		compare(fmt.Sprintf("hybrid bias=%v", b != nil))

		for _, unsigned := range []bool{false, true} {
			zp, zero := int32(0), byte(0)
			if unsigned {
				zp, zero = 128, 128
			}
			qs := make([]byte, inLen)
			rng.Read(qs)
			for i := range qs {
				if rng.Intn(5) == 0 {
					qs[i] = zero
				}
			}
			// Every other run zeroes whole pixels, and so whole 1×1
			// patches, and sometimes the entire input.
			if rng.Intn(2) == 0 {
				allZero := rng.Intn(4) == 0
				c := in[len(in)-1]
				for p := 0; p < inLen; p += c {
					if allZero || rng.Intn(2) == 0 {
						for i := p; i < p+c; i++ {
							qs[i] = zero
						}
					}
				}
			}
			q8Ref(ref, qs, zp, unsigned, wq, b, scale)
			for _, act := range []graph.OpType{graph.OpInvalid, graph.OpReLU, graph.OpReLU6} {
				poison()
				copy(want, ref)
				m := q8(got, qs, zp, unsigned, wq, b, scale, act)
				regime := fmt.Sprintf("int8 unsigned=%v bias=%v act=%v", unsigned, b != nil, act)
				if act == graph.OpInvalid {
					compare(regime)
				}
				checkQ8Epilogue(t, name+" "+regime, got, want, m, act)
			}
		}
	}
	odd := append([]float32(nil), bias...)
	odd[rng.Intn(len(odd))] = float32(math.NaN())
	odd[rng.Intn(len(odd))] = float32(math.Inf(1))
	qs := make([]byte, inLen)
	rng.Read(qs)
	q8Ref(ref, qs, 0, false, wq, odd, scale)
	for _, act := range []graph.OpType{graph.OpInvalid, graph.OpReLU, graph.OpReLU6} {
		poison()
		copy(want, ref)
		m := q8(got, qs, 0, false, wq, odd, scale, act)
		checkQ8Epilogue(t, fmt.Sprintf("%s int8 NaN/Inf bias act=%v", name, act), got, want, m, act)
	}
	// A zero point of 2^24 makes each product near 2^31: the sums wrap in
	// the oracle's int32, and the kernels must not pack two pixels into
	// one int64 (their lanes would carry into each other).
	poison()
	q8(got, qs, 1<<24, false, wq, bias, scale, graph.OpInvalid)
	q8Ref(want, qs, 1<<24, false, wq, bias, scale)
	compare("int8 zero point 2^24")
}

// checkQ8Epilogue compares an integer kernel's fused epilogue with the
// oracle's output followed by applyActivation and maxAbs: the returned max
// must equal maxAbs bit for bit, every output must match, and the two
// must requantize to the same int8 bytes. The fused ReLU may leave +0
// where applyActivation leaves −0, and NaN payloads may differ; neither is
// visible in a quantized byte.
func checkQ8Epilogue(t *testing.T, name string, got, want []float32, m float32, act graph.OpType) {
	t.Helper()
	if act.Valid() {
		applyActivation(want, act, nil, 1)
	}
	wantMax := float32(maxAbs(want))
	if math.Float32bits(m) != math.Float32bits(wantMax) {
		t.Fatalf("%s: max %v (%#08x), maxAbs %v (%#08x)", name, m, math.Float32bits(m), wantMax, math.Float32bits(wantMax))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g == 0 && w == 0) && !(g != g && w != w) {
			t.Fatalf("%s: out[%d] = %v (%#08x), oracle %v (%#08x)", name, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	scale := float64(wantMax) / 127
	if scale == 0 {
		scale = 1
	}
	gq, wq := make([]byte, len(got)), make([]byte, len(want))
	requantize(gq, got, graph.Int8, scale, 0)
	requantize(wq, want, graph.Int8, scale, 0)
	for i := range wq {
		if gq[i] != wq[i] {
			t.Fatalf("%s: requantized out[%d] = %d, oracle %d", name, i, int8(gq[i]), int8(wq[i]))
		}
	}
}
