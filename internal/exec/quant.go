package exec

import (
	"encoding/binary"
	"math"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Quantization scheme (documented in docs/exec.md):
//
//   - Per-tensor affine: real = (q - zeroPoint) · scale. int8 and int16
//     are symmetric (zeroPoint 0); uint8 centres on 128.
//   - Weights are symmetric int8 with a model-wide scale resolved at
//     compile time (Attrs.Scale on the layer, else the model's quantize
//     layer, else DefaultWeightScale).
//   - Activations are dynamic-range quantized: each producing op computes
//     its real-valued output and requantizes with scale = maxabs/limit,
//     zeroPoint 0 (128 for uint8). No calibration pass exists — the corpus
//     ships no calibration data — and dynamic ranges keep the path
//     deterministic: same input, same scales, same bytes.

// decodeFloat32 reinterprets little-endian fp32 weight bytes.
func decodeFloat32(data []byte) []float32 {
	out := make([]float32, len(data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return out
}

// decodeFloat16 widens IEEE 754 half-precision weight bytes to fp32.
func decodeFloat16(data []byte) []float32 {
	out := make([]float32, len(data)/2)
	for i := range out {
		out[i] = f16to32(binary.LittleEndian.Uint16(data[i*2:]))
	}
	return out
}

func f16to32(h uint16) float32 {
	sign := uint32(h>>15) << 31
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h) & 0x3ff
	switch exp {
	case 0:
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalise into fp32's wider exponent range.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (frac&0x3ff)<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | frac<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | frac<<13)
	}
}

// decodeInt8 widens symmetric int8 weight bytes with their per-tensor
// scale (used for small secondary tensors — bias, γ/β, α — where a copy
// is cheaper than three more kernel variants; the heavy conv/dense kernel
// tensors stay zero-copy in step.wRaw).
func decodeInt8(data []byte, scale float64) []float32 {
	out := make([]float32, len(data))
	s := float32(scale)
	for i, b := range data {
		out[i] = float32(int8(b)) * s
	}
	return out
}

// quantLimit returns the symmetric clamp magnitude for a dtype.
func quantLimit(dt graph.DType) float64 {
	switch dt {
	case graph.Int16:
		return 32767
	default: // int8, uint8
		return 127
	}
}

// roundShift is 1.5·2^52: adding and subtracting it rounds a float64 with
// |x| < 2^51 to the nearest integer, ties to even, in two exact steps.
const roundShift = 0x1.8p52

// requantize stores real-valued src into the quantized byte buffer dst
// with the given scale/zeroPoint, clamping to the dtype's range. Rounding
// is math.RoundToEven without its data-dependent branches: (x+1.5·2^52)
// −1.5·2^52 for every x. Below 2^51 in magnitude that is exact
// round-half-even; NaN and ±Inf pass through unchanged; larger values stay
// out of int32 range with their sign, as RoundToEven's results do, so the
// int32 conversion sees the same class of input. The explicit float64()
// keeps x·inv from fusing with the shift into an FMA.
func requantize(dst []byte, src []float32, dt graph.DType, scale float64, zp int32) {
	inv := 0.0
	if scale != 0 {
		inv = 1 / scale
	}
	switch dt {
	case graph.UInt8:
		dst = dst[:len(src)]
		for i, v := range src {
			q := int32(float64(float64(v)*inv)+roundShift-roundShift) + zp
			dst[i] = byte(min(max(q, 0), 255))
		}
	case graph.Int16:
		for i, v := range src {
			q := int32(float64(float64(v)*inv)+roundShift-roundShift) + zp
			binary.LittleEndian.PutUint16(dst[i*2:], uint16(int16(min(max(q, -32768), 32767))))
		}
	default: // Int8
		dst = dst[:len(src)]
		for i, v := range src {
			q := int32(float64(float64(v)*inv)+roundShift-roundShift) + zp
			dst[i] = byte(int8(min(max(q, -128), 127)))
		}
	}
}

// dequantize expands quantized bytes into real values.
func dequantize(dst []float32, src []byte, dt graph.DType, scale float64, zp int32) {
	if scale == 0 {
		scale = 1
	}
	s := float32(scale)
	switch dt {
	case graph.UInt8:
		for i := range dst {
			dst[i] = float32(int32(src[i])-zp) * s
		}
	case graph.Int16:
		for i := range dst {
			q := int32(int16(binary.LittleEndian.Uint16(src[i*2:])))
			dst[i] = float32(q-zp) * s
		}
	default: // Int8
		for i := range dst {
			dst[i] = float32(int32(int8(src[i]))-zp) * s
		}
	}
}

// maxAbs returns the dynamic range of a real-valued tensor. NaNs are
// skipped (no comparison with a NaN is true).
func maxAbs(x []float32) float64 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return float64(m)
}

// activateMax applies act to x in place and returns max|x| with maxAbs's
// semantics. act is OpReLU, OpReLU6 or OpInvalid (scan only); see
// foldsIntoMax.
func activateMax(x []float32, act graph.OpType) float32 {
	var top uint32
	for _, v := range x {
		top = max(top, absBits(v))
	}
	return activateTop(x, act, top)
}

// absBits is |v|'s bit pattern. Non-negative floats order like their bit
// patterns as unsigned integers, with every NaN above +Inf, so a running
// max of absBits is an integer min/max (CMOV) rather than a data-dependent
// branch on a random sign.
func absBits(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// activateTop is activateMax for a caller that already has top, the max
// absBits of x. A NaN pattern there sends the block through the branchy
// applyActivation and maxAbs, which skip NaNs. Without NaNs, ReLU and
// ReLU6 also run on bit patterns; they differ from applyActivation only by
// writing +0 where it keeps a −0, which no quantized byte can tell apart.
func activateTop(x []float32, act graph.OpType, top uint32) float32 {
	if top > 0x7f800000 {
		applyActivation(x, act, nil, 1)
		return float32(maxAbs(x))
	}
	switch act {
	case graph.OpReLU:
		top = 0
		for i, v := range x {
			b := math.Float32bits(v)
			b &^= uint32(int32(b) >> 31) // negative → +0
			x[i] = math.Float32frombits(b)
			top = max(top, b)
		}
	case graph.OpReLU6:
		six := math.Float32bits(6)
		top = 0
		for i, v := range x {
			b := math.Float32bits(v)
			b = min(b&^uint32(int32(b)>>31), six)
			x[i] = math.Float32frombits(b)
			top = max(top, b)
		}
	}
	return math.Float32frombits(top)
}

// foldsIntoMax reports whether activateMax applies a fused activation
// itself; the others run through applyActivation first.
func foldsIntoMax(act graph.OpType) bool {
	return act == graph.OpReLU || act == graph.OpReLU6
}

// splitmix64 is the deterministic input generator: one multiply-shift
// round per element, seeded per run and per tensor, allocation-free.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
