package stream

import (
	"fmt"
	"io"
	"os"

	"cstf/internal/ckpt"
)

// Publisher writes successive model versions to one checkpoint path through
// internal/ckpt's atomic temp-file + rename, so a serve.Server watching the
// path (`cstf-serve -watch`) hot-reloads each version and never observes a
// torn file. The checkpoint's Iter field carries the publish sequence
// number — it is what /healthz and /statsz report as model_iter, giving
// operators an end-to-end freshness counter.
//
// Each publish additionally retains the version under ckpt.VersionPath
// (hardlinked when the filesystem allows, copied otherwise), keeping the
// newest Keep generations. Retention is what makes the serve-side
// corruption fallback possible: if the live file is ever damaged on disk,
// the server rolls back to the newest intact retained version instead of
// serving nothing.
type Publisher struct {
	path    string
	seed    uint64
	version int

	// Keep is how many retained versions to leave on disk; 0 means
	// defaultKeep, negative disables retention entirely.
	Keep int
}

// defaultKeep retains enough history to survive a corrupted live file plus
// a corrupted newest retained copy.
const defaultKeep = 3

// NewPublisher publishes to path. seed is recorded in each checkpoint so a
// resumed pipeline reproduces the same grown-row initialization.
func NewPublisher(path string, seed uint64) *Publisher {
	return &Publisher{path: path, seed: seed}
}

// Version returns the last published sequence number (0 before the first).
func (p *Publisher) Version() int { return p.version }

// Path returns the checkpoint path being published to.
func (p *Publisher) Path() string { return p.path }

// Publish atomically writes the updater's current model as the next
// version. The file names the model's rule: "stream" for least squares,
// "ncp" with the inner pass count for the nonnegative rule. On error the
// previous version remains intact on disk and the version counter does not
// advance.
func (p *Publisher) Publish(u *Updater, fit float64) (int, error) {
	next := p.version + 1
	cp := &ckpt.File{
		Algorithm: "stream",
		Rank:      u.Rank(),
		Seed:      p.seed,
		Iter:      next,
		Dims:      u.Dims(),
		Lambda:    u.Lambda(),
		Fits:      []float64{fit},
	}
	if u.rule.Nonneg {
		cp.Algorithm, cp.NTF = "ncp", &ckpt.NTFState{InnerIters: u.rule.Inner}
	}
	for _, f := range u.Factors() {
		cp.Factors = append(cp.Factors, f.Data)
	}
	if err := ckpt.Write(p.path, cp); err != nil {
		return p.version, fmt.Errorf("stream: publish v%d: %w", next, err)
	}
	p.retain(next)
	p.version = next
	return next, nil
}

// retain snapshots the just-published live file as version n and prunes
// generations beyond Keep. Retention failures are deliberately non-fatal:
// the live publish already succeeded, and a missing history entry only
// narrows the corruption-fallback window.
func (p *Publisher) retain(n int) {
	keep := p.Keep
	if keep == 0 {
		keep = defaultKeep
	}
	if keep < 0 {
		return
	}
	vp := ckpt.VersionPath(p.path, n)
	if err := os.Link(p.path, vp); err != nil {
		if err := copyFile(p.path, vp); err != nil {
			return
		}
	}
	if vs, err := ckpt.ListVersions(p.path); err == nil {
		for _, v := range vs {
			if v <= n-keep {
				os.Remove(ckpt.VersionPath(p.path, v))
			}
		}
	}
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(dst)
		return err
	}
	return out.Close()
}
