//go:build amd64 && !amd64.v3

package exec

import (
	"encoding/hex"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// TestPinnedOutputDigests pins the sha256 output digests of the infer
// benchmark's three models (zoo seed 31: MobileNetV2, BlazeFace, keyword
// CNN) in fp32 and PTQ int8 for input seeds 0-2. The determinism tests
// compare the interpreter with itself; this one fails if a kernel change
// moves any output bit. The values were recorded before the integer
// kernels were allowed to reassociate and are unchanged by it.
//
// The build constraint keeps it to amd64 without FMA (GOAMD64 v1/v2): on
// other targets the compiler may fuse the fp32 kernels' multiply-adds,
// which changes their rounding, so the digests differ there by design.
func TestPinnedOutputDigests(t *testing.T) {
	pinned := []struct {
		name    string
		task    zoo.Task
		quant   bool
		digests [3]string
	}{
		{"mobilenetv2/fp32", zoo.TaskImageClassification, false, [3]string{
			"f415cb842c4d5bcffcf5252273ec944014378547efb289ab88211f923f6efd7c",
			"062e08f64b50128ae5941c77ea347f79f39041ef8d523d3b052cd9a0d372ef85",
			"8b6401a88e373816c4597f6ef3f8e2ecb963632f4ffec579ac9b0eefab3ebf69"}},
		{"mobilenetv2/int8", zoo.TaskImageClassification, true, [3]string{
			"d4e573ec8811d215494e684efa64acb6056f7d349af2ad169904b756d712f9a0",
			"f225a2eb9ad831900044443dd523c73464ba1947a7dd4a4f9a794853418a27d4",
			"7d7da901f4024b3db9471a369a58945cfcc18c311ea2651ecdcf932c5d2c4ee7"}},
		{"blazeface/fp32", zoo.TaskFaceDetection, false, [3]string{
			"c7b328373320342610685baf0864d58c5fb55274fec12fca9dbc5f95eba8f547",
			"9a456e45e56932b9b9b120763834ce936167a5b646beeac559c160a65909513a",
			"e4da620f42462969b1eba6b54683618bce09866a08498e281e64ac2174deec06"}},
		{"blazeface/int8", zoo.TaskFaceDetection, true, [3]string{
			"55713d04ad1f7b270c13349994e69c712433354703996fb0d420ec1f4af21180",
			"8914eec115ce8edb052a538100a08a5638ada622c556538a9f146465fc55b7c8",
			"ee4a7e1e2a6c6a08bf31ad5460b424bdadff2f0eb9323ab39275911eb91ad25d"}},
		{"kws/fp32", zoo.TaskKeywordDetection, false, [3]string{
			"c9c94f212fad27e5baeeed6ec252785d606f280e890a86538ab00671587dac29",
			"3f33ebaa3da38d116667f7f9abbf83bea7869af370c3cf206d0d2dfd0ae9dbdb",
			"a49264e77cfdbe0adb8d700cd47fec8617a0dc7e6d9db2df897f721d99b2644c"}},
		{"kws/int8", zoo.TaskKeywordDetection, true, [3]string{
			"74744c8d4f539f0242a5bf0790ee215dc86926b966085b2d71401c0ce23c8d28",
			"fad7125f0d53feced75c7e113094a8907b86dc2301a8f7432ee2cfb406ecf780",
			"4950f30d37b3b1f4ea81d2fd80b990bc462ddeb5a7b37c043d2bafe083a2cb40"}},
	}
	for _, m := range pinned {
		inst := buildModel(t, zoo.Spec{Task: m.task, Seed: 31, Quantized: m.quant}).NewInstance()
		for seed, want := range m.digests {
			inst.Run(uint64(seed))
			d := inst.Digest()
			if got := hex.EncodeToString(d[:]); got != want {
				t.Errorf("%s input seed %d: digest %s, pinned %s", m.name, seed, got, want)
			}
		}
	}
}
