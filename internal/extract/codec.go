package extract

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/store"
)

// reportCodecVersion is bumped whenever the wire layout (or the meaning of
// any persisted field) changes; stored reports from other versions are
// treated as cache misses and re-extracted, never migrated. Version 2
// sealed the record (see store.SealJSON): report keys hash the APK, not
// the report bytes, so the blob carries its own integrity digest.
const reportCodecVersion = 2

// HashAPK content-hashes a whole app package — the persistence key for
// extraction reports. Equal bytes imply an identical extraction outcome,
// because extraction is a pure function of the package bytes. The hash is
// domain-separated from model payload hashes (see HashPayload) so an APK
// and a model file with equal bytes can never collide in the store. The
// hash is sha256: the bytes are untrusted, and a crafted package sharing
// another's key would poison the warm report cache.
func HashAPK(apkBytes []byte) PayloadHash {
	h := sha256.New()
	io.WriteString(h, "apk\x00")
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(apkBytes)))
	h.Write(lenBuf[:])
	h.Write(apkBytes)
	var out PayloadHash
	h.Sum(out[:0])
	return out
}

// reportWire is the persisted form of a Report. Decoded graphs are
// deliberately absent: a persisted model row carries only its checksum,
// which keys the per-checksum analysis record in the same store — exactly
// the shape cache-backed extraction produces in memory (Model.Graph nil).
type reportWire struct {
	V                int                 `json:"v"`
	Package          string              `json:"package"`
	Models           []modelWire         `json:"models,omitempty"`
	CandidateFiles   int                 `json:"candidate_files,omitempty"`
	FailedValidation []string            `json:"failed_validation,omitempty"`
	Frameworks       []string            `json:"frameworks,omitempty"`
	CloudAPIs        []cloudml.Detection `json:"cloud_apis,omitempty"`
	UsesNNAPI        bool                `json:"uses_nnapi,omitempty"`
	UsesXNNPACK      bool                `json:"uses_xnnpack,omitempty"`
	UsesSNPE         bool                `json:"uses_snpe,omitempty"`
	LazyModelDown    bool                `json:"lazy_model_download,omitempty"`
	OnDeviceTraining bool                `json:"on_device_training,omitempty"`
}

type modelWire struct {
	Path      string         `json:"path"`
	Framework string         `json:"framework"`
	Checksum  graph.Checksum `json:"checksum"`
	FileBytes int            `json:"file_bytes"`
}

// EncodeReport serialises a report for the study store. The encoding is
// deterministic (fixed field order, no maps beyond sorted slices the
// extractor already produces), so equal reports encode to equal bytes.
// Models' decoded graphs are not persisted; their analysis lives under the
// checksum key in the analysis CAS.
func EncodeReport(r *Report) ([]byte, error) {
	w := reportWire{
		V:                reportCodecVersion,
		Package:          r.Package,
		CandidateFiles:   r.CandidateFiles,
		FailedValidation: r.FailedValidation,
		Frameworks:       r.Frameworks,
		CloudAPIs:        r.CloudAPIs,
		UsesNNAPI:        r.UsesNNAPI,
		UsesXNNPACK:      r.UsesXNNPACK,
		UsesSNPE:         r.UsesSNPE,
		LazyModelDown:    r.LazyModelDownload,
		OnDeviceTraining: r.OnDeviceTraining,
	}
	for _, m := range r.Models {
		w.Models = append(w.Models, modelWire{
			Path: m.Path, Framework: m.Framework, Checksum: m.Checksum, FileBytes: m.FileBytes,
		})
	}
	return store.SealJSON(w)
}

// DecodeReport reverses EncodeReport. Reports written by a different codec
// version — or whose seal no longer verifies — fail to decode; callers
// treat that as a cache miss and re-extract rather than trusting a stale
// or corrupted record.
func DecodeReport(data []byte) (*Report, error) {
	var w reportWire
	if err := store.OpenJSON(data, &w); err != nil {
		return nil, fmt.Errorf("extract: decoding report: %w", err)
	}
	if w.V != reportCodecVersion {
		return nil, fmt.Errorf("extract: report codec version %d, want %d", w.V, reportCodecVersion)
	}
	r := &Report{
		Package:           w.Package,
		CandidateFiles:    w.CandidateFiles,
		FailedValidation:  w.FailedValidation,
		Frameworks:        w.Frameworks,
		CloudAPIs:         w.CloudAPIs,
		UsesNNAPI:         w.UsesNNAPI,
		UsesXNNPACK:       w.UsesXNNPACK,
		UsesSNPE:          w.UsesSNPE,
		LazyModelDownload: w.LazyModelDown,
		OnDeviceTraining:  w.OnDeviceTraining,
	}
	for _, m := range w.Models {
		r.Models = append(r.Models, Model{
			Path: m.Path, Framework: m.Framework, Checksum: m.Checksum, FileBytes: m.FileBytes,
		})
	}
	return r, nil
}
