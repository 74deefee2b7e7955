package extract

import (
	"fmt"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/store"
)

// TestContentKeyGoldenVectors pins the report and payload store keys:
// sha256 over the domain-separated, length-prefixed layouts. Changing
// either layout orphans every persisted report and payload record, so a
// change here must be deliberate. The vectors were computed
// independently of this package (Python hashlib over the same layout).
func TestContentKeyGoldenVectors(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  PayloadHash
		want string
	}{
		{"apk/empty", HashAPK(nil), "ce46daec1e6d081e05e350065c2470ed3137ced760d425d7e5dc0de74fd0437e"},
		{"apk/bytes", HashAPK([]byte("PK\x03\x04 gaugenn")), "32e90a6eaa76a33746b4069384f1ade3a26e9506103e395d2c7d3fbf45f8705f"},
		{"payload/one-file", HashPayload("tflite", formats.FileSet{"model.tflite": []byte("TFL3 weights")}),
			"2dfd61faa910c8a086777072acaf2bad2796d3112038467b9fde0819dae5ec4e"},
		{"payload/two-files", HashPayload("caffe", formats.FileSet{
			"net.prototxt": []byte("layer {}"), "net.caffemodel": {0, 1, 2},
		}), "28979d52c7b0de3eb5f4e579432251e9a7e9c7497ba83ad2f483f40ad9798feb"},
	} {
		if got := store.HexKey(tc.got[:]); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestHashPayloadCanonical checks that the key depends on the file-set's
// content only: not on map iteration or insertion order, and that no
// byte can move across a format/name/content boundary without changing
// the key.
func TestHashPayloadCanonical(t *testing.T) {
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("part-%02d.bin", i)
	}
	forward, backward := formats.FileSet{}, formats.FileSet{}
	for i, n := range names {
		forward[n] = []byte(n + " payload")
		backward[names[len(names)-1-i]] = []byte(names[len(names)-1-i] + " payload")
	}
	want := HashPayload("ncnn", forward)
	// Go randomises map iteration per range loop: repeat to exercise many
	// orders.
	for i := 0; i < 50; i++ {
		if HashPayload("ncnn", forward) != want || HashPayload("ncnn", backward) != want {
			t.Fatal("HashPayload depends on map order")
		}
	}

	shifted := [][2]PayloadHash{
		{ // name/bytes boundary
			HashPayload("tflite", formats.FileSet{"ab": []byte("c")}),
			HashPayload("tflite", formats.FileSet{"a": []byte("bc")}),
		},
		{ // format/name boundary
			HashPayload("tf", formats.FileSet{"lite": []byte("x")}),
			HashPayload("tfl", formats.FileSet{"ite": []byte("x")}),
		},
		{ // bytes of one file into the next file's name
			HashPayload("caffe", formats.FileSet{"a": []byte("xb"), "c": []byte("y")}),
			HashPayload("caffe", formats.FileSet{"a": []byte("x"), "bc": []byte("y")}),
		},
		{ // one file split into two
			HashPayload("caffe", formats.FileSet{"a": []byte("xy")}),
			HashPayload("caffe", formats.FileSet{"a": []byte("x"), "b": []byte("y")}),
		},
	}
	for i, pair := range shifted {
		if pair[0] == pair[1] {
			t.Fatalf("split %d: shifting bytes across a boundary kept the key %x", i, pair[0])
		}
	}
}
