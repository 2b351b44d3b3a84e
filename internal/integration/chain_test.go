package integration

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"
	"time"

	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/fleet"
	"cstf/internal/la"
	"cstf/internal/serve"
	"cstf/internal/stream"
	"cstf/internal/tensor"
)

// chainUsers is the user count of the initial batch: the streamed users at
// or past it grow mode 0 of the resident tensor.
const chainUsers = 70

// chainData splits a small planted recommender tensor into the initial
// batch and the streamed interactions. The stream holds a fifth of the
// batch users' interactions with every interaction of the new users in the
// middle, so exactly the middle windows grow mode 0.
func chainData() (base *tensor.COO, streamed []tensor.Entry) {
	x := tensor.GenRecsys(11, 6000, 80, 60, 4, 4, 0.02)
	base = tensor.New(chainUsers, x.Dims[1], x.Dims[2])
	var old, grown []tensor.Entry
	for i, e := range x.Entries {
		switch {
		case int(e.Idx[0]) >= chainUsers:
			grown = append(grown, e)
		case i%5 == 0:
			old = append(old, e)
		default:
			base.Entries = append(base.Entries, e)
		}
	}
	half := len(old) / 2
	streamed = append(streamed, old[:half]...)
	streamed = append(streamed, grown...)
	streamed = append(streamed, old[half:]...)
	return base, streamed
}

// bitsHash feeds float64 bit patterns into an FNV-1a hash.
type bitsHash struct{ hash.Hash64 }

func (h bitsHash) put(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func (h bitsHash) model(lambda []float64, factors []*la.Dense) {
	h.put(lambda...)
	for _, f := range factors {
		h.put(f.Data...)
	}
}

// TestChainGoldenHash pins the end-to-end path train → checkpoint → resume
// → stream → publish → reload → query as one hash per solver, at
// Parallelism 1 and 4. A fixed seed trains four iterations, checkpoints,
// and resumes one more from the file; the result is streamed in windows
// over a SliceSource (the middle ones grow mode 0, every second one is
// followed by a full sweep) and published after each window; the last
// version is loaded into three in-process replicas and a fixed query set
// goes through the router in affinity and in shard mode. The hash covers
// the resumed model, lambda and the factor bits after every window, and the
// encoded answers of every query.
func TestChainGoldenHash(t *testing.T) {
	base, streamed := chainData()
	cases := []struct {
		name, want string
		solve      func(o cpals.Options, cp *ckpt.File) (*cpals.Result, error)
	}{
		{"serial", "0e3a02e5283f8975", func(o cpals.Options, _ *ckpt.File) (*cpals.Result, error) {
			return cpals.Solve(base, o)
		}},
		{"ncp", "4a2431ab012af884", func(o cpals.Options, cp *ckpt.File) (*cpals.Result, error) {
			inner := 3
			if cp != nil {
				inner = cp.NTF.InnerIters
			}
			return cpals.SolveWith(base, o, cpals.Update{Rule: cpals.Rule{Nonneg: true, Inner: inner}})
		}},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			if got := chainHash(t, base, streamed, p, c.solve); got != c.want {
				t.Errorf("%s Parallelism %d: chain hash %s, want %s", c.name, p, got, c.want)
			}
		}
	}
}

func chainHash(t *testing.T, base *tensor.COO, streamed []tensor.Entry, p int,
	solve func(o cpals.Options, cp *ckpt.File) (*cpals.Result, error)) string {
	t.Helper()
	const rank, seed, head = 4, 5, 4
	dir := t.TempDir()
	h := bitsHash{fnv.New64a()}

	// Train, checkpoint at the last iteration, resume one more from disk.
	cpPath := filepath.Join(dir, "train.ckpt")
	o := cpals.Options{Rank: rank, MaxIters: head, Seed: seed, Parallelism: p,
		CheckpointEvery: head, OnCheckpoint: func(cp *ckpt.File) error { return ckpt.Write(cpPath, cp) }}
	if _, err := solve(o, nil); err != nil {
		t.Fatal(err)
	}
	cp, err := ckpt.Load(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	o = cpals.Options{Rank: rank, MaxIters: head + 1, Seed: seed, Parallelism: p}
	o.Restore(cp)
	res, err := solve(o, cp)
	if err != nil {
		t.Fatal(err)
	}
	h.model(res.Lambda, res.Factors)
	h.put(res.Fits...)

	// Stream and publish after every window.
	u, err := stream.NewUpdaterFromResult(base, res, seed, p)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.ckpt")
	const windows = 4
	per := (len(streamed) + windows - 1) / windows
	grown := 0
	pl, err := stream.NewPipeline(stream.NewSliceSource(streamed, per), u, stream.NewPublisher(modelPath, seed),
		stream.Config{
			WindowSize:     per,
			MaxWait:        time.Minute,
			FullSweepEvery: 2,
			FullSweepIters: 2,
			Queue:          stream.QueueConfig{Policy: stream.Block},
			OnWindow: func(ws stream.WindowStats) {
				grown += ws.Update.GrownModes
				h.model(u.Lambda(), u.Factors())
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := pl.Metrics(); m.Windows != windows || m.Published != windows || m.FullSweeps != windows/2 {
		t.Fatalf("pipeline ran %d windows, published %d, swept %d", m.Windows, m.Published, m.FullSweeps)
	}
	if grown == 0 || u.Dims()[0] <= chainUsers {
		t.Fatalf("no window grew mode 0: dims %v", u.Dims())
	}

	// Reload the last version into three replicas; query through the
	// router in affinity and in shard mode.
	lf, err := fleet.StartLocal(3, func(int) (*serve.Model, error) {
		return serve.LoadCheckpoint(modelPath)
	}, serve.Config{}, serve.HandlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	users := u.Dims()[0]
	queries := []serve.Query{
		{Mode: 1, Given: []serve.Cond{{Mode: 0, Row: 3}}, K: 5},
		{Mode: 1, Given: []serve.Cond{{Mode: 0, Row: users - 1}}, K: 5},
		{Mode: 1, Given: []serve.Cond{{Mode: 0, Row: 12}, {Mode: 2, Row: 1}}, K: 4, Exclude: []int{0, 5, 9}},
		{Mode: 0, Given: []serve.Cond{{Mode: 1, Row: 7}}, K: 6},
		{Kind: serve.Similar, Mode: 0, Row: chainUsers + 2, K: 3},
	}
	for _, shard := range []bool{false, true} {
		rt, err := fleet.New(fleet.Config{
			Replicas:      lf.Configs(),
			Shard:         shard,
			ProbeInterval: 10 * time.Millisecond,
			Timeout:       5 * time.Second,
			Retry:         dist.RetryPolicy{MaxAttempts: 3, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			got, err := rt.Rank(context.Background(), q)
			if err != nil {
				rt.Close()
				t.Fatalf("shard=%v query %+v: %v", shard, q, err)
			}
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		rt.Close()
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
