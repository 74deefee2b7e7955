package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Test-only oracles: the textbook MAC loop nests (output element outermost,
// reduction innermost) that the production kernels in kernels.go replaced.
// They are kept verbatim apart from the Ref suffix so that
// TestMACKernelsMatchReference can check the rewritten kernels bit for bit.

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

// TestMACKernelsMatchReference checks every MAC kernel against its oracle
// bit for bit over a seeded sweep of strides, dilations, paddings, batch
// sizes and channel counts (1, odd, and above the int32 block size), in
// all three weight regimes, with int8 and zero-point-128 uint8
// activations. Activations include exact zeros, and some float weights are
// +Inf, so a float kernel that skipped a zero term (0·Inf = NaN) fails.
func TestMACKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260417))
	chans := []int{1, 3, macBlock + 3}
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
						for _, outC := range []int{1, 5, 2*macBlock + 1} {
							name := fmt.Sprintf("conv/n%d/s%d/d%d/%s/in%d/out%d", batch, stride, dil, pd.name, inC, outC)
							out := graph.Shape{batch, oh, ow, outC}
							checkMAC(t, rng, name, in, out, a.KernelH*a.KernelW*inC*outC, outC,
								func(d, s, w, b []float32) { conv2dF32(d, s, w, b, in, out, a) },
								func(d, s, w, b []float32) { conv2dF32Ref(d, s, w, b, in, out, a) },
								func(d, s []float32, w []byte, b []float32, sc float32) { conv2dW8(d, s, w, b, sc, in, out, a) },
								func(d, s []float32, w []byte, b []float32, sc float32) { conv2dW8Ref(d, s, w, b, sc, in, out, a) },
								func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32) {
									conv2dQ8(d, s, zp, u, w, b, sc, in, out, a)
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
								func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32) {
									dwConvQ8(d, s, zp, u, w, b, sc, in, out, a)
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
					func(d []float32, s []byte, zp int32, u bool, w []byte, b []float32, sc float32) {
						denseQ8(d, s, zp, u, w, b, sc, batch, inF, units)
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
	f32Kernel func(dst, src, w, bias []float32)
	w8Kernel  func(dst, src []float32, w []byte, bias []float32, wScale float32)
	q8Kernel  func(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32)
)

// checkMAC runs one kernel shape through the fp32, hybrid and integer
// regimes (with and without bias) and compares each kernel's output with
// its oracle's by bit pattern.
func checkMAC(t *testing.T, rng *rand.Rand, name string, in, out graph.Shape, wLen, channels int,
	f32, f32Ref f32Kernel, w8, w8Ref w8Kernel, q8, q8Ref q8Kernel) {
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
	got, want := make([]float32, outLen), make([]float32, outLen)
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
			poison()
			q8(got, qs, zp, unsigned, wq, b, scale)
			q8Ref(want, qs, zp, unsigned, wq, b, scale)
			compare(fmt.Sprintf("int8 unsigned=%v bias=%v", unsigned, b != nil))
		}
	}
}
