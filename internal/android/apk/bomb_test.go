package apk

import (
	"archive/zip"
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// TestDeflateBombRejected pins the deflate-bomb fix: a small APK whose one
// deflated entry inflates past MaxBaseAPKSize must fail with the typed
// ErrEntryTooLarge, and must do so without inflating the entry.
func TestDeflateBombRejected(t *testing.T) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	mw, err := zw.Create(ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Write([]byte(sampleManifest().Encode())); err != nil {
		t.Fatal(err)
	}
	const name = "assets/models/bomb.tflite"
	bw, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Deflate})
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for left := MaxBaseAPKSize + 1; left > 0; left -= len(zeros) {
		if _, err := bw.Write(zeros[:min(left, len(zeros))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 1<<20 {
		t.Fatalf("crafted APK is %d bytes; the fixture should be small", buf.Len())
	}
	r, err := Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.ReadFile(name)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("ReadFile(%s) = %v, want ErrEntryTooLarge", name, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the bomb allocated %d bytes", grew)
	}
}
