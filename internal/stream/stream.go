// Package stream closes the ingest → retrain → hot-reload → serve loop:
// it turns the repository's batch pieces (cpals warm starts, internal/ckpt
// atomic checkpoints, the serve.Server watcher) into a continuously-fresh
// pipeline over a live stream of tensor nonzeros.
//
// The moving parts, in data-flow order:
//
//   - Source: emits new nonzeros — a deterministic seeded synthetic
//     generator (SyntheticSource) or a tail-follower over an append-only
//     .tns log (TailSource).
//   - Queue: a bounded ingest buffer decoupling the producer from the
//     updater, with Block (backpressure) and DropNewest (shed) policies.
//   - Updater: merges each micro-batched delta window into the resident COO
//     tensor — growing mode sizes as unseen indices appear — and refreshes
//     the CP factors with an ALS sweep restricted to the touched rows
//     (CDTF/SALS-style row-wise updates), with periodic full warm-started
//     sweeps to bound drift.
//   - Publisher: checkpoints each version through internal/ckpt's atomic
//     writes, so a `cstf-serve -watch` process hot-reloads it.
//   - Pipeline: wires the four together and reports per-window metrics
//     (events, update time, published version, freshness lag).
package stream

import (
	"fmt"
	"io"

	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// Source emits new tensor nonzeros. Next returns up to max fresh entries;
// an empty batch with a nil error means nothing is available right now
// (poll again later), io.EOF means the source is exhausted for good.
// Sources are not safe for concurrent use; the pipeline's single feeder
// goroutine owns one.
type Source interface {
	Next(max int) ([]tensor.Entry, error)
}

// SyntheticConfig sizes a SyntheticSource.
type SyntheticConfig struct {
	Seed  uint64  // determines the planted factors AND the event stream
	Dims  []int   // initial mode sizes
	Rank  int     // rank of the planted CP model the values are drawn from
	Noise float64 // stddev of additive Gaussian noise on each value
	Total int     // events before io.EOF; 0 streams forever

	// GrowEvery, when positive, appends one new index to a mode (round-robin
	// over modes) every GrowEvery-th event and emits that event at the new
	// index — so consumers see the mode sizes grow over time, as a live
	// user/item catalogue does.
	GrowEvery int
}

// SyntheticSource deterministically generates nonzeros of a planted
// low-rank CP model, the streaming analogue of tensor.GenLowRank: the same
// (seed, coordinate) always yields the same value, so a streamed tensor and
// a batch-generated one agree wherever they overlap.
type SyntheticSource struct {
	cfg     SyntheticConfig
	dims    []int
	src     *rng.SplitMix64
	emitted int
}

// NewSynthetic validates cfg and returns a source at event zero.
func NewSynthetic(cfg SyntheticConfig) (*SyntheticSource, error) {
	if len(cfg.Dims) < 1 || len(cfg.Dims) > tensor.MaxOrder {
		return nil, fmt.Errorf("stream: order %d out of range [1,%d]", len(cfg.Dims), tensor.MaxOrder)
	}
	for _, d := range cfg.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("stream: non-positive mode size %d", d)
		}
	}
	if cfg.Rank <= 0 {
		return nil, fmt.Errorf("stream: planted rank must be positive, got %d", cfg.Rank)
	}
	return &SyntheticSource{
		cfg:  cfg,
		dims: append([]int(nil), cfg.Dims...),
		src:  rng.New(cfg.Seed),
	}, nil
}

// Dims returns a copy of the current (possibly grown) mode sizes.
func (s *SyntheticSource) Dims() []int { return append([]int(nil), s.dims...) }

// PlantedValue evaluates the planted rank-r CP model at one coordinate,
// using the same per-cell factor formula as tensor.GenLowRank.
func PlantedValue(seed uint64, rank int, idx []uint32) float64 {
	var v float64
	for col := 0; col < rank; col++ {
		p := 1.0
		for m, i := range idx {
			p *= 0.1 + rng.UniformAt(seed, uint64(m), uint64(i), uint64(col))
		}
		v += p
	}
	return v
}

// Next emits up to max events. The stream is a pure function of the config:
// two sources with equal configs produce identical event sequences.
func (s *SyntheticSource) Next(max int) ([]tensor.Entry, error) {
	if s.cfg.Total > 0 && s.emitted >= s.cfg.Total {
		return nil, io.EOF
	}
	if max <= 0 {
		return nil, nil
	}
	n := max
	if s.cfg.Total > 0 && s.emitted+n > s.cfg.Total {
		n = s.cfg.Total - s.emitted
	}
	out := make([]tensor.Entry, 0, n)
	for len(out) < n {
		s.emitted++
		var e tensor.Entry
		grow := s.cfg.GrowEvery > 0 && s.emitted%s.cfg.GrowEvery == 0
		growMode := -1
		if grow {
			growMode = (s.emitted / s.cfg.GrowEvery) % len(s.dims)
			s.dims[growMode]++
		}
		for m, d := range s.dims {
			if m == growMode {
				e.Idx[m] = uint32(d - 1) // the event lands on the brand-new index
				continue
			}
			e.Idx[m] = uint32(s.src.Intn(d))
		}
		e.Val = PlantedValue(s.cfg.Seed, s.cfg.Rank, e.Idx[:len(s.dims)])
		if s.cfg.Noise > 0 {
			e.Val += s.cfg.Noise * s.src.NormFloat64()
		}
		out = append(out, e)
	}
	return out, nil
}

// SliceSource replays a fixed slice of entries, `per` at a time — the
// deterministic source tests and the equivalence property use to stream a
// pre-generated static tensor window by window.
type SliceSource struct {
	entries []tensor.Entry
	per     int
	pos     int
}

// NewSliceSource returns a source replaying entries in order. per bounds
// how many each Next call yields regardless of max; per <= 0 means "max".
func NewSliceSource(entries []tensor.Entry, per int) *SliceSource {
	return &SliceSource{entries: entries, per: per}
}

// Next returns the next batch, or io.EOF once the slice is exhausted.
func (s *SliceSource) Next(max int) ([]tensor.Entry, error) {
	if s.pos >= len(s.entries) {
		return nil, io.EOF
	}
	n := max
	if s.per > 0 && s.per < n {
		n = s.per
	}
	if rem := len(s.entries) - s.pos; n > rem {
		n = rem
	}
	if n <= 0 {
		return nil, nil
	}
	out := s.entries[s.pos : s.pos+n]
	s.pos += n
	return out, nil
}
