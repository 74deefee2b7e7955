package serve

import (
	"context"
	"sync/atomic"

	"github.com/gaugenn/gaugenn/internal/index"
)

// corpusDecodes counts corpus decodes performed by this process's serve
// path. The warm-path contract — indexed endpoints never decode a corpus
// — is asserted against it by TestWarmPathDecodesNoCorpus.
var corpusDecodes atomic.Int64

// index returns one snapshot's query index by corpus CAS key: memoised,
// else loaded from the store, else rebuilt from the corpus (the lazy
// path for stores populated before the index kind existed, and the
// self-heal path for corrupt index blobs — both read as a load miss).
// A rebuild is persisted best-effort: if the write fails the request is
// still answered from the in-memory index, and the next cold process
// rebuilds again (eviction-safe fallback).
func (s *Server) index(ctx context.Context, key string) (*index.Index, error) {
	if ix, ok := s.indexes.get(key); ok {
		return ix, nil
	}
	if ix, ok := index.Load(s.st, key); ok {
		s.memoIndex(key, ix)
		return ix, nil
	}
	c, err := s.corpus(ctx, key)
	if err != nil {
		return nil, err
	}
	ix := index.BuildStore(s.st, c)
	metIndexBuilds.Inc()
	if err := index.Persist(s.st, key, ix); err != nil {
		logf("serve: persisting rebuilt index %s: %v", key, err)
	}
	s.memoIndex(key, ix)
	return ix, nil
}

func (s *Server) memoIndex(key string, ix *index.Index) {
	_, resident := s.indexes.add(key, ix)
	metIndexResident.SetInt(int64(resident))
}
