package extract

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// extractFixtureReport extracts a real file set in process (no decode
// cache), so the resulting models carry decoded graphs.
func extractFixtureReport(t *testing.T) *Report {
	t.Helper()
	fs, _ := buildModelFiles(t, zoo.TaskFaceDetection, 3, "tflite")
	files := map[string][]byte{}
	for name, data := range fs {
		files["assets/"+name] = data
	}
	rep := ExtractFiles(files)
	if len(rep.Models) == 0 || rep.Models[0].Graph == nil {
		t.Fatal("fixture extraction produced no decoded models")
	}
	rep.Package = "com.fixture.app"
	return rep
}

func fullReport() *Report {
	return &Report{
		Package: "com.example.app",
		Models: []Model{
			{Path: "assets/detector.tflite", Framework: "tflite", Checksum: "aabb01", FileBytes: 1234},
			{Path: "assets/net.param", Framework: "ncnn", Checksum: "ccdd02", FileBytes: 99},
		},
		CandidateFiles:   5,
		FailedValidation: []string{"assets/enc.model"},
		Frameworks:       []string{"ncnn", "tflite"},
		CloudAPIs: []cloudml.Detection{
			{Provider: "google", API: "mlkit-vision", File: "com/example/A.smali"},
		},
		UsesNNAPI:         true,
		UsesXNNPACK:       true,
		UsesSNPE:          false,
		LazyModelDownload: true,
		OnDeviceTraining:  false,
	}
}

func TestReportCodecRoundTrip(t *testing.T) {
	rep := fullReport()
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, got)
	}
}

func TestReportCodecByteStable(t *testing.T) {
	rep := fullReport()
	first, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeReport(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeReport(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encode(decode(encode)) not byte-stable:\n%s\n%s", first, second)
	}
}

func TestReportCodecDropsGraphs(t *testing.T) {
	// Reports persisted to the store must never carry decoded graphs —
	// the analysis CAS owns decoded data, keyed by checksum.
	rep := extractFixtureReport(t)
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got.Models {
		if m.Graph != nil {
			t.Fatalf("model %s decoded with a graph", m.Path)
		}
	}
	// Everything except graphs survives.
	if got.Package != rep.Package || len(got.Models) != len(rep.Models) {
		t.Fatalf("lossy codec: %+v vs %+v", got, rep)
	}
	for i := range got.Models {
		if got.Models[i].Checksum != rep.Models[i].Checksum {
			t.Fatalf("model %d checksum mismatch", i)
		}
	}
}

func TestReportCodecVersionGate(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"v":99,"package":"x"}`)); err == nil {
		t.Fatal("future codec version must not decode")
	}
	if _, err := DecodeReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestHashAPKDomainSeparated(t *testing.T) {
	data := []byte("identical bytes")
	a := HashAPK(data)
	b := HashAPK(append([]byte(nil), data...))
	if a != b {
		t.Fatal("HashAPK must be content-deterministic")
	}
	if a == HashAPK([]byte("different")) {
		t.Fatal("distinct contents must hash apart")
	}
	// An APK and a model file-set holding the very same bytes never share
	// a key, even when the file-set's format is named "apk".
	for _, p := range []PayloadHash{
		HashPayload("tflite", formats.FileSet{"m.tflite": data}),
		HashPayload("apk", formats.FileSet{"": data}),
		HashPayload("", formats.FileSet{"": data}),
	} {
		if p == a {
			t.Fatalf("payload hash %x equals the APK hash of the same bytes", p)
		}
	}
}
