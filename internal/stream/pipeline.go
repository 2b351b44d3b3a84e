package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"cstf/internal/tensor"
)

// Config wires a Pipeline. Zero values select the documented defaults.
type Config struct {
	// WindowSize bounds how many queued events one delta window merges.
	// Default 1024.
	WindowSize int
	// MaxWait is each window's deadline: a window closes when it holds
	// WindowSize events or MaxWait after the drain began, whichever is
	// first (an empty one is a quiet interval). It bounds how long an
	// event waits for its window to fill; a run whose windows must not
	// depend on timing sets it above any stall of its source. Default 50ms.
	MaxWait time.Duration
	// PollInterval is how long the feeder sleeps when the source has
	// nothing new (a tailed file that has not grown). Default 10ms.
	PollInterval time.Duration
	// PublishEvery publishes a checkpoint version every Nth window.
	// Default 1 (every window). 0 also means 1; negative disables.
	PublishEvery int
	// FullSweepEvery runs a warm-started full ALS sweep every Nth window
	// (after the restricted update), bounding drift. 0 disables.
	FullSweepEvery int
	// FullSweepIters is the iterations per full sweep. Default 1.
	FullSweepIters int
	// MaxWindows stops the pipeline after N applied windows; 0 runs until
	// the source is exhausted or the context is cancelled.
	MaxWindows int
	// Queue sizes the ingest buffer.
	Queue QueueConfig

	// OnWindow, when non-nil, observes every applied window (called on the
	// pipeline's consumer goroutine, in order).
	OnWindow func(WindowStats)
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 1024
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 50 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 1
	}
	if c.FullSweepIters <= 0 {
		c.FullSweepIters = 1
	}
	return c
}

// WindowStats describes one applied window, for logging and benchmarks.
type WindowStats struct {
	Window    int         `json:"window"` // 1-based window number
	Update    UpdateStats `json:"update"`
	FullSweep bool        `json:"full_sweep"`
	Fit       float64     `json:"fit"`     // set only when a full sweep ran (else 0)
	Version   int         `json:"version"` // published version, 0 when not published
	// FreshnessLag is the age of the OLDEST event in the window at the
	// moment its version was published — the end-to-end event→queryable
	// bound for this window. Zero when the window was not published.
	FreshnessLag time.Duration `json:"-"`
	LagMs        float64       `json:"lag_ms"`
	Dims         []int         `json:"dims"`
}

// Metrics aggregates a pipeline run.
type Metrics struct {
	Windows    int           `json:"windows"`
	Events     int           `json:"events"`
	Published  int           `json:"published"`
	FullSweeps int           `json:"full_sweeps"`
	Queue      QueueStats    `json:"queue"`
	UpdateTime time.Duration `json:"-"`
	MaxLag     time.Duration `json:"-"`
}

// Pipeline pumps Source → Queue → Updater → Publisher. Construct with
// NewPipeline, drive with Run.
type Pipeline struct {
	cfg Config
	src Source
	q   *Queue
	up  *Updater
	pub *Publisher

	metrics Metrics
}

// NewPipeline wires the stages. pub may be nil (update without publishing —
// e.g. measuring pure update cost).
func NewPipeline(src Source, up *Updater, pub *Publisher, cfg Config) (*Pipeline, error) {
	if src == nil {
		return nil, fmt.Errorf("stream: nil source")
	}
	if up == nil {
		return nil, fmt.Errorf("stream: nil updater")
	}
	return &Pipeline{
		cfg: cfg.withDefaults(),
		src: src,
		q:   NewQueue(cfg.Queue),
		up:  up,
		pub: pub,
	}, nil
}

// Queue exposes the ingest queue (for its counters).
func (p *Pipeline) Queue() *Queue { return p.q }

// Metrics returns the aggregate counters (read after Run returns).
func (p *Pipeline) Metrics() Metrics {
	m := p.metrics
	m.Queue = p.q.Stats()
	return m
}

// Run drives the pipeline until the source is exhausted, MaxWindows is
// reached, or ctx is cancelled (which is a clean stop, not an error). The
// feeder goroutine pumps the source into the queue; the calling goroutine
// is the consumer: drain a window, apply the delta, sweep/publish on
// schedule. Source errors (e.g. a corrupt line in a tailed log) abort the
// run and are returned.
func (p *Pipeline) Run(ctx context.Context) error {
	cfg := p.cfg
	feedErr := make(chan error, 1)
	go p.feed(ctx, feedErr)
	defer p.q.Close()

	for {
		if err := ctx.Err(); err != nil {
			return nil // cancelled: clean stop
		}
		evs, more := p.q.Drain(cfg.WindowSize, cfg.MaxWait)
		if len(evs) > 0 {
			if err := p.window(evs); err != nil {
				return err
			}
			if cfg.MaxWindows > 0 && p.metrics.Windows >= cfg.MaxWindows {
				break
			}
		}
		if !more {
			break
		}
	}
	p.q.Close()
	select {
	case err := <-feedErr:
		return err
	default:
		return nil
	}
}

// feed pumps the source into the queue until EOF, a source error, or ctx
// cancellation. Push under the Block policy applies backpressure here —
// exactly where it belongs, between the source and the bounded buffer.
func (p *Pipeline) feed(ctx context.Context, errCh chan<- error) {
	defer p.q.Close()
	for {
		if ctx.Err() != nil {
			return
		}
		batch, err := p.src.Next(p.cfg.WindowSize)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				errCh <- err
			}
			return
		}
		if len(batch) == 0 {
			select {
			case <-ctx.Done():
				return
			case <-p.q.closed:
				return
			case <-time.After(p.cfg.PollInterval):
			}
			continue
		}
		now := time.Now()
		for _, e := range batch {
			if !p.q.Push(e, now) && p.cfg.Queue.Policy == Block {
				return // queue closed under us: consumer is done
			}
		}
	}
}

// window applies one drained window: merge + restricted sweep, scheduled
// full sweep, scheduled publish, stats.
func (p *Pipeline) window(evs []Event) error {
	cfg := p.cfg
	delta := make([]tensor.Entry, len(evs))
	oldest := evs[0].At
	for i, ev := range evs {
		delta[i] = ev.Entry
		if ev.At.Before(oldest) {
			oldest = ev.At
		}
	}
	ust, err := p.up.ApplyDelta(delta)
	if err != nil {
		return err
	}
	p.metrics.Windows++
	p.metrics.Events += ust.Events
	p.metrics.UpdateTime += ust.Duration

	ws := WindowStats{
		Window: p.metrics.Windows,
		Update: ust,
		Dims:   p.up.Dims(),
	}
	if cfg.FullSweepEvery > 0 && p.metrics.Windows%cfg.FullSweepEvery == 0 {
		fit, err := p.up.FullSweep(cfg.FullSweepIters)
		if err != nil {
			return err
		}
		ws.FullSweep = true
		ws.Fit = fit
		p.metrics.FullSweeps++
	}
	if p.pub != nil && cfg.PublishEvery > 0 && p.metrics.Windows%cfg.PublishEvery == 0 {
		v, err := p.pub.Publish(p.up, ws.Fit)
		if err != nil {
			return err
		}
		ws.Version = v
		ws.FreshnessLag = time.Since(oldest)
		ws.LagMs = float64(ws.FreshnessLag.Nanoseconds()) / 1e6
		p.metrics.Published++
		if ws.FreshnessLag > p.metrics.MaxLag {
			p.metrics.MaxLag = ws.FreshnessLag
		}
	}
	if cfg.OnWindow != nil {
		cfg.OnWindow(ws)
	}
	return nil
}
