package cstf

import (
	"time"

	"cstf/internal/la"
	"cstf/internal/serve"
)

// ServeOptions tunes the model server started by Decomposition.Server. The
// zero value selects the documented serve.Config defaults; fields mirror
// that struct so callers never import internal packages directly.
type ServeOptions struct {
	// MaxBatch bounds how many already-queued ranked queries one executor
	// pass coalesces into a single blocked scan (default 32).
	MaxBatch int
	// QueueDepth bounds the request queue; a full queue sheds with
	// serve.ErrOverloaded (default 1024).
	QueueDepth int
	// CacheSize bounds the LRU result cache in entries; 0 selects the
	// default 4096, negative disables caching.
	CacheSize int
	// Workers bounds the fan-out of one batched scan; <= 0 uses all cores.
	Workers int
	// Timeout, when positive, caps every query's total wait.
	Timeout time.Duration
}

func (o ServeOptions) config() serve.Config {
	return serve.Config{
		MaxBatch:   o.MaxBatch,
		QueueDepth: o.QueueDepth,
		CacheSize:  o.CacheSize,
		Workers:    o.Workers,
		Timeout:    o.Timeout,
	}
}

// Server starts a model server answering Predict/TopK/Similar queries
// against this decomposition. The served model shares the decomposition's
// factor matrices, which nothing writes: Matrix is read-only and a resumed
// solve returns a new Decomposition. Lambda is an exported slice, so it is
// cloned. The caller must Close the returned server; serve.NewHandler
// exposes it over HTTP and Server.Watch hot-reloads newer checkpoints.
func (d *Decomposition) Server(o ServeOptions) (*serve.Server, error) {
	factors := make([]*la.Dense, len(d.Factors))
	for n, f := range d.Factors {
		factors[n] = f.d
	}
	m, err := serve.NewModel(la.VecClone(d.Lambda), factors, 0, o.Workers)
	if err != nil {
		return nil, err
	}
	m.Iter = d.Iters
	return serve.New(m, o.config())
}
