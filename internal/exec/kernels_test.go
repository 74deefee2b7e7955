package exec

import (
	"math"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

func almost(t *testing.T, name string, got, want []float32, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > tol {
			t.Fatalf("%s[%d] = %v, want %v (±%v)\n got %v\nwant %v", name, i, got[i], want[i], tol, got, want)
		}
	}
}

func TestConv2DF32(t *testing.T) {
	// 1×3×3×1 input, 2×2 kernel of ones, stride 1: VALID output is the
	// 2×2 window sums; SAME keeps 3×3 with truncated border windows.
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	w := []float32{1, 1, 1, 1}
	in := graph.Shape{1, 3, 3, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}

	valid := make([]float32, 4)
	conv2dF32(valid, src, w, nil, in, graph.Shape{1, 2, 2, 1}, a)
	almost(t, "conv valid", valid, []float32{12, 16, 24, 28}, 1e-6)

	a.PadSame = true
	same := make([]float32, 9)
	conv2dF32(same, src, w, []float32{1}, in, graph.Shape{1, 3, 3, 1}, a)
	// SAME with a 2×2 kernel pads bottom/right only; +1 bias everywhere.
	almost(t, "conv same", same, []float32{13, 17, 10, 25, 29, 16, 16, 18, 10}, 1e-6)
}

func TestConv2DDilated(t *testing.T) {
	// Dilation 2 makes a 2×2 kernel span 3 input positions: the only VALID
	// output of a 3×3 input is the four corners' sum.
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	w := []float32{1, 1, 1, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1, Dilation: 2}
	dst := make([]float32, 1)
	conv2dF32(dst, src, w, nil, graph.Shape{1, 3, 3, 1}, graph.Shape{1, 1, 1, 1}, a)
	almost(t, "dilated conv", dst, []float32{1 + 3 + 7 + 9}, 1e-6)
}

func TestConvWeightLayoutHWIO(t *testing.T) {
	// 1×1 kernel, 2 in-channels, 2 filters: w[ic*outC+oc] — checks the
	// HWIO stride arithmetic directly.
	src := []float32{1, 10}
	w := []float32{1, 2, 3, 4} // ic0→(oc0:1, oc1:2), ic1→(oc0:3, oc1:4)
	dst := make([]float32, 2)
	a := graph.Attrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	conv2dF32(dst, src, w, nil, graph.Shape{1, 1, 1, 2}, graph.Shape{1, 1, 1, 2}, a)
	almost(t, "conv hwio", dst, []float32{1 + 30, 2 + 40}, 1e-6)
}

func TestDepthwiseConvF32(t *testing.T) {
	// 2 channels, 2×2 ones kernel, channel multiplier 1: per-channel
	// window sums, no cross-channel mixing.
	src := []float32{
		1, 100, 2, 200,
		3, 300, 4, 400,
	}
	w := []float32{1, 1, 1, 1, 1, 1, 1, 1} // [2,2,C=2,mult=1]
	dst := make([]float32, 2)
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	dwConvF32(dst, src, w, nil, graph.Shape{1, 2, 2, 2}, graph.Shape{1, 1, 1, 2}, a)
	almost(t, "dwconv", dst, []float32{10, 1000}, 1e-6)
}

func TestDenseF32(t *testing.T) {
	// [1,3]×[3,2] row-major + bias.
	dst := make([]float32, 2)
	denseF32(dst, []float32{1, 2, 3}, []float32{1, 4, 2, 5, 3, 6}, []float32{10, 20}, 1, 3, 2)
	almost(t, "dense", dst, []float32{1*1 + 2*2 + 3*3 + 10, 1*4 + 2*5 + 3*6 + 20}, 1e-6)
}

func TestHybridMatchesFloat(t *testing.T) {
	// int8 weights {-2,-1,1,2} at scale 0.5 ≡ float weights {-1,-.5,.5,1}:
	// the W8 kernels must agree with the F32 kernels exactly (the weights
	// are exactly representable).
	src := []float32{1, 2, 3, 4}
	wq := []byte{0xFE, 0xFF, 0x01, 0x02}
	wf := []float32{-1, -0.5, 0.5, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	in, out := graph.Shape{1, 2, 2, 1}, graph.Shape{1, 1, 1, 1}
	want := make([]float32, 1)
	conv2dF32(want, src, wf, nil, in, out, a)
	got := make([]float32, 1)
	conv2dW8(got, src, wq, nil, 0.5, in, out, a)
	almost(t, "hybrid conv", got, want, 1e-6)

	denseF32(want, src, wf, nil, 1, 4, 1)
	denseW8(got, src, wq, nil, 0.5, 1, 4, 1)
	almost(t, "hybrid dense", got, want, 1e-6)
}

func TestQ8IntegerMAC(t *testing.T) {
	// Quantized dense: x = {2,-3} at scale .1 (zp 0), w = {5,7} at scale
	// .01 → real dot = .2·.05 + (-.3)·.07 = -0.011.
	dst := make([]float32, 1)
	src := []byte{0x02, 0xFD}
	w := []byte{0x05, 0x07}
	denseQ8(dst, src, 0, false, w, nil, float32(0.1*0.01), graph.OpInvalid, 1, 2, 1)
	almost(t, "q8 dense", dst, []float32{-0.011}, 1e-7)

	// uint8 input with zero-point 128: q=130 ≡ +2, q=125 ≡ -3.
	denseQ8(dst, []byte{130, 125}, 128, true, w, nil, float32(0.1*0.01), graph.OpInvalid, 1, 2, 1)
	almost(t, "q8 dense u8", dst, []float32{-0.011}, 1e-7)
}

func TestPoolsF32(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	in := graph.Shape{1, 3, 3, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, PadSame: true}
	mx := make([]float32, 4)
	maxPoolF32(mx, src, in, graph.Shape{1, 2, 2, 1}, a)
	almost(t, "maxpool", mx, []float32{5, 6, 8, 9}, 1e-6)
	av := make([]float32, 4)
	avgPoolF32(av, src, in, graph.Shape{1, 2, 2, 1}, a)
	// Border windows average only their valid taps.
	almost(t, "avgpool", av, []float32{3, 4.5, 7.5, 9}, 1e-6)

	g := make([]float32, 1)
	globalAvgPoolF32(g, src, in)
	almost(t, "globalavg", g, []float32{5}, 1e-6)
}

func TestActivations(t *testing.T) {
	x := []float32{-7, -1, 0, 1, 7}
	relu := append([]float32(nil), x...)
	applyActivation(relu, graph.OpReLU, nil, 1)
	almost(t, "relu", relu, []float32{0, 0, 0, 1, 7}, 1e-6)

	relu6 := append([]float32(nil), x...)
	applyActivation(relu6, graph.OpReLU6, nil, 1)
	almost(t, "relu6", relu6, []float32{0, 0, 0, 1, 6}, 1e-6)

	hs := append([]float32(nil), x...)
	applyActivation(hs, graph.OpHardSwish, nil, 1)
	almost(t, "hardswish", hs, []float32{0, -1.0 / 3, 0, 2.0 / 3, 7}, 1e-6)

	pr := append([]float32(nil), x...)
	applyActivation(pr, graph.OpPRelu, []float32{0.1}, 1)
	almost(t, "prelu", pr, []float32{-0.7, -0.1, 0, 1, 7}, 1e-6)

	sig := []float32{0}
	applyActivation(sig, graph.OpSigmoid, nil, 1)
	almost(t, "sigmoid", sig, []float32{0.5}, 1e-6)

	th := []float32{0, 1}
	applyActivation(th, graph.OpTanh, nil, 1)
	almost(t, "tanh", th, []float32{0, float32(math.Tanh(1))}, 1e-6)

	sm := []float32{1, 1, 2, 2}
	applyActivation(sm, graph.OpSoftmax, nil, 2) // two rows of two
	almost(t, "softmax", sm, []float32{0.5, 0.5, 0.5, 0.5}, 1e-6)
}

func TestBatchNormF32(t *testing.T) {
	dst := make([]float32, 4)
	batchNormF32(dst, []float32{1, 2, 3, 4}, []float32{2, 10}, []float32{1, 0}, 2)
	almost(t, "batchnorm", dst, []float32{3, 20, 7, 40}, 1e-6)
	// nil γ/β is identity (detached-weight graphs).
	batchNormF32(dst, []float32{1, 2, 3, 4}, nil, nil, 2)
	almost(t, "batchnorm identity", dst, []float32{1, 2, 3, 4}, 1e-6)
}

func TestBinaryBroadcast(t *testing.T) {
	dst := make([]float32, 4)
	addF32(dst, []float32{1, 2, 3, 4}, []float32{10, 20, 30, 40})
	almost(t, "add full", dst, []float32{11, 22, 33, 44}, 1e-6)
	addF32(dst, []float32{1, 2, 3, 4}, []float32{10, 20}) // per-channel
	almost(t, "add channel", dst, []float32{11, 22, 13, 24}, 1e-6)
	mulF32(dst, []float32{1, 2, 3, 4}, []float32{10}) // scalar
	almost(t, "mul scalar", dst, []float32{10, 20, 30, 40}, 1e-6)
}

func TestConcatSlicePadMean(t *testing.T) {
	// Concat two [1,2,2] blocks on the channel axis.
	cat := make([]float32, 8)
	concatF32(cat, [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}},
		[]graph.Shape{{1, 2, 2}, {1, 2, 2}}, -1)
	almost(t, "concat", cat, []float32{1, 2, 5, 6, 3, 4, 7, 8}, 1e-6)

	// Slice the centre column of a 3×3.
	sl := make([]float32, 3)
	sliceF32(sl, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9},
		graph.Shape{3, 3}, graph.Shape{3, 1}, []int{0, 1})
	almost(t, "slice", sl, []float32{2, 5, 8}, 1e-6)

	// Pad a 1×1×1×1 by one pixel each side.
	pd := make([]float32, 9)
	padF32(pd, []float32{5}, graph.Shape{1, 1, 1, 1}, graph.Shape{1, 3, 3, 1},
		graph.Attrs{PadH: 1, PadW: 1})
	almost(t, "pad", pd, []float32{0, 0, 0, 0, 5, 0, 0, 0, 0}, 1e-6)

	// Mean over H,W of a 1×2×2×2 keeps channels.
	mn := make([]float32, 2)
	meanF32(mn, []float32{1, 10, 2, 20, 3, 30, 4, 40},
		graph.Shape{1, 2, 2, 2}, []int{1, 2})
	almost(t, "mean", mn, []float32{2.5, 25}, 1e-6)
}

func TestResizeF32(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	in, out := graph.Shape{1, 2, 2, 1}, graph.Shape{1, 4, 4, 1}
	nst := make([]float32, 16)
	resizeF32(nst, src, in, out, false)
	almost(t, "resize nearest", nst, []float32{
		1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}, 1e-6)

	bil := make([]float32, 16)
	resizeF32(bil, src, in, out, true)
	// Half-pixel bilinear: corners keep source values, centres interpolate.
	almost(t, "resize bilinear corners", []float32{bil[0], bil[3], bil[12], bil[15]},
		[]float32{1, 2, 3, 4}, 1e-6)
	almost(t, "resize bilinear centre", []float32{bil[5]}, []float32{(1*9 + 2*3 + 3*3 + 4) / 16.0}, 1e-3)
}

func TestTransposeConvF32(t *testing.T) {
	// 2×2 stride-2 ones kernel: each input pixel becomes a 2×2 block.
	dst := make([]float32, 16)
	w := []float32{1, 1, 1, 1} // [2,2,outC=1,inC=1]
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	transposeConv2dF32(dst, []float32{1, 2, 3, 4}, w, nil,
		graph.Shape{1, 2, 2, 1}, graph.Shape{1, 4, 4, 1}, a)
	almost(t, "transpose conv", dst, []float32{
		1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}, 1e-6)
}

func TestQuantRoundTrip(t *testing.T) {
	src := []float32{-1.27, -0.5, 0, 0.3, 1.27}
	for _, dt := range []graph.DType{graph.Int8, graph.UInt8, graph.Int16} {
		buf := make([]byte, len(src)*dt.Size())
		scale := maxAbs(src) / quantLimit(dt)
		var zp int32
		if dt == graph.UInt8 {
			zp = 128
		}
		requantize(buf, src, dt, scale, zp)
		back := make([]float32, len(src))
		dequantize(back, buf, dt, scale, zp)
		almost(t, "roundtrip "+dt.String(), back, src, scale/2+1e-7)
	}
}

func TestFloat16Decode(t *testing.T) {
	// 0x3C00=1.0, 0xC100=-2.5, 0x3800=0.5, 0x0001=smallest subnormal.
	got := decodeFloat16([]byte{0x00, 0x3C, 0x00, 0xC1, 0x00, 0x38, 0x01, 0x00})
	almost(t, "f16", got[:3], []float32{1, -2.5, 0.5}, 1e-6)
	if got[3] <= 0 || got[3] > 1e-7 {
		t.Errorf("subnormal decoded to %v", got[3])
	}
}
