package exec

import (
	"errors"
	"math"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

func buildModel(t testing.TB, spec zoo.Spec) *Program {
	t.Helper()
	g, err := zoo.Build(spec)
	if err != nil {
		t.Fatalf("build %v: %v", spec.Task, err)
	}
	p, err := Compile(g)
	if err != nil {
		t.Fatalf("compile %s: %v", g.Name, err)
	}
	return p
}

// TestCompileZooModels drives the interpreter across the executable zoo
// architectures in all three precision regimes and checks the plan
// invariants that arena sizing depends on.
func TestCompileZooModels(t *testing.T) {
	specs := []zoo.Spec{
		{Task: zoo.TaskImageClassification, Seed: 1},                        // MobileNetV2: conv, dwconv, add, pooling
		{Task: zoo.TaskImageClassification, Seed: 1, Quantized: true},       // PTQ int8 activations
		{Task: zoo.TaskImageClassification, Seed: 1, WeightQuantized: true}, // hybrid int8 weights
		{Task: zoo.TaskObjectDetection, Seed: 2},                            // FSSD: concat, reshape heads
		{Task: zoo.TaskFaceDetection, Seed: 3},                              // BlazeFace: pad, maxpool residuals
		{Task: zoo.TaskSemanticSegmentation, Seed: 4},                       // UNet: transpose conv, resize
		{Task: zoo.TaskStyleTransfer, Seed: 5},                              // encoder-decoder: resize, batch-norm
		{Task: zoo.TaskKeywordDetection, Seed: 6},                           // audio conv stack
		{Task: zoo.TaskCrashDetection, Seed: 7},                             // sensor MLP: dense, softmax
	}
	for _, spec := range specs {
		p := buildModel(t, spec)
		if p.ArenaBytes() <= 0 {
			t.Errorf("%s: arena not planned", p.Graph.Name)
		}
		inst := p.NewInstance()
		if lat := inst.Run(42); lat <= 0 {
			t.Errorf("%s: non-positive latency %v", p.Graph.Name, lat)
		}
		if len(inst.Stats()) == 0 {
			t.Errorf("%s: no roofline stats after a run", p.Graph.Name)
		}
	}
}

// TestRunDeterminism pins the interpreter's core property: the digest is a
// pure function of (program, seed) — across repeat runs of one instance,
// across fresh instances, and across separately compiled programs.
func TestRunDeterminism(t *testing.T) {
	spec := zoo.Spec{Task: zoo.TaskImageClassification, Seed: 11, Quantized: true}
	p1 := buildModel(t, spec)
	p2 := buildModel(t, spec)
	a, b, c := p1.NewInstance(), p1.NewInstance(), p2.NewInstance()
	for seed := uint64(0); seed < 3; seed++ {
		a.Run(seed)
		da := a.Digest()
		a.Run(seed)
		if a.Digest() != da {
			t.Fatalf("seed %d: repeat run changed digest", seed)
		}
		b.Run(seed)
		if b.Digest() != da {
			t.Fatalf("seed %d: fresh instance changed digest", seed)
		}
		c.Run(seed)
		if c.Digest() != da {
			t.Fatalf("seed %d: recompiled program changed digest", seed)
		}
	}
}

// TestPoolDeterministicAcrossWorkerCounts is the satellite property test:
// byte-identical batch results whatever the pool size.
func TestPoolDeterministicAcrossWorkerCounts(t *testing.T) {
	p := buildModel(t, zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 21})
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(i * 7)
	}
	ref := NewPool(p, 1).Run(seeds)
	for _, workers := range []int{2, 3, 8} {
		got := NewPool(p, workers).Run(seeds)
		for i := range ref {
			if got[i].Seed != ref[i].Seed || got[i].Digest != ref[i].Digest {
				t.Fatalf("workers=%d: result %d diverged from single-worker run", workers, i)
			}
		}
	}
}

// TestInt8AgreesWithFP32 runs the infer benchmark's three models
// (MobileNetV2, BlazeFace, keyword CNN) in fp32 and the two quantized
// regimes and checks the documented end-to-end tolerance: cosine
// similarity of the final outputs ≥ 0.95 (docs/exec.md derives this from
// the per-op error budget of dynamic-range int8).
func TestInt8AgreesWithFP32(t *testing.T) {
	for _, task := range []zoo.Task{zoo.TaskImageClassification, zoo.TaskFaceDetection, zoo.TaskKeywordDetection} {
		ref := buildModel(t, zoo.Spec{Task: task, Seed: 31})
		for _, variant := range []zoo.Spec{
			{Task: task, Seed: 31, Quantized: true},
			{Task: task, Seed: 31, WeightQuantized: true},
		} {
			q := buildModel(t, variant)
			ri, qi := ref.NewInstance(), q.NewInstance()
			ri.Run(5)
			qi.Run(5)
			for _, name := range ref.Outputs() {
				a := ri.Output(name)
				// Quantized variants rename nothing: outputs match by
				// position (PTQ rewires through dequantize layers).
				b := qi.Output(q.Outputs()[indexOf(ref.Outputs(), name)])
				if cos := cosine(a, b); cos < 0.95 {
					t.Errorf("task %v quantized=%v output %s: cosine %.4f < 0.95",
						task, variant.Quantized, name, cos)
				}
			}
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

func cosine(a, b []float32) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// TestValidateUnsupportedOps checks the typed rejection path: recurrent
// models fail with errs.ErrUnsupportedOps listing each offending operator,
// and Compile refuses them the same way.
func TestValidateUnsupportedOps(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskAutoComplete, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	err = Validate(g)
	if !errors.Is(err, errs.ErrUnsupportedOps) {
		t.Fatalf("Validate = %v, want ErrUnsupportedOps", err)
	}
	var ue *errs.UnsupportedOpsError
	if !errors.As(err, &ue) {
		t.Fatalf("error is not *UnsupportedOpsError: %T", err)
	}
	found := map[string]bool{}
	for _, op := range ue.Ops {
		found[op] = true
	}
	if !found["lstm"] || !found["embedding"] {
		t.Errorf("Ops = %v, want lstm and embedding listed", ue.Ops)
	}
	if _, err := Compile(g); !errors.Is(err, errs.ErrUnsupportedOps) {
		t.Errorf("Compile = %v, want ErrUnsupportedOps", err)
	}

	if err := Validate(mustBuild(t, zoo.Spec{Task: zoo.TaskCrashDetection, Seed: 42})); err != nil {
		t.Errorf("executable model rejected: %v", err)
	}
}

func mustBuild(t *testing.T, spec zoo.Spec) *graph.Graph {
	t.Helper()
	g, err := zoo.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAllocsPerRun gates the steady-state zero-alloc contract on the full
// hot path — input fill, every kernel, metric updates and the digest —
// for both the fp32 and quantized regimes (PR 7 convention: pre-resolved
// metric handles, no per-op lookups).
func TestAllocsPerRun(t *testing.T) {
	for _, spec := range []zoo.Spec{
		{Task: zoo.TaskCrashDetection, Seed: 51},
		{Task: zoo.TaskKeywordDetection, Seed: 52, Quantized: true},
	} {
		p := buildModel(t, spec)
		inst := p.NewInstance()
		inst.Run(1) // warm: lazy runtime state settles outside the measurement
		seed := uint64(0)
		if n := testing.AllocsPerRun(100, func() {
			seed++
			inst.Run(seed)
			_ = inst.Digest()
		}); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", p.Graph.Name, n)
		}
	}
}

// TestArenaReuse checks the allocator actually reuses buffers: the planned
// float arena of a deep sequential model must be far below the sum of all
// its activation tensors.
func TestArenaReuse(t *testing.T) {
	p := buildModel(t, zoo.Spec{Task: zoo.TaskImageClassification, Seed: 61})
	var sum int
	for _, ti := range p.tensors {
		if ti.isFloat {
			sum += ti.size
		}
	}
	if p.floatArena >= sum/2 {
		t.Errorf("float arena %d elements; want < half the %d-element tensor total (no reuse?)", p.floatArena, sum)
	}
}
