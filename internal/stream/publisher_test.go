package stream

import (
	"os"
	"path/filepath"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/tensor"
)

// TestPublisherRetainsVersions publishes several generations and checks the
// retention contract: the newest Keep versions exist next to the live file
// (readable, correct sequence numbers), older generations are pruned, and
// the live file always matches the newest retained version.
func TestPublisherRetainsVersions(t *testing.T) {
	x := tensor.GenLowRank(11, 2000, 3, 0.05, 40, 30, 20)
	u := trainedUpdater(t, x, 3, 3, 11)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	pub := NewPublisher(path, 11)
	pub.Keep = 2

	for i := 0; i < 5; i++ {
		v, err := pub.Publish(u, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if v != i+1 {
			t.Fatalf("publish %d returned version %d", i, v)
		}
	}

	vs, err := ckpt.ListVersions(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0] != 4 || vs[1] != 5 {
		t.Fatalf("retained versions %v, want [4 5]", vs)
	}
	for _, v := range vs {
		f, err := ckpt.Load(ckpt.VersionPath(path, v))
		if err != nil {
			t.Fatalf("retained version %d unreadable: %v", v, err)
		}
		if f.Iter != v {
			t.Fatalf("retained version %d carries iter %d", v, f.Iter)
		}
	}
	live, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if live.Iter != 5 {
		t.Fatalf("live file iter %d, want 5", live.Iter)
	}
}

// TestPublisherRetentionDisabled checks Keep < 0 leaves no version files.
func TestPublisherRetentionDisabled(t *testing.T) {
	x := tensor.GenLowRank(12, 2000, 3, 0.05, 40, 30, 20)
	u := trainedUpdater(t, x, 3, 3, 12)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	pub := NewPublisher(path, 12)
	pub.Keep = -1
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish(u, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := ckpt.ListVersions(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("retention disabled but versions exist: %v", vs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("stray files in publish dir: %v", ents)
	}
}

// A streamed nonnegative model is published as what it is: an "ncp" file
// carrying the inner pass count, while a least-squares one stays "stream".
func TestPublisherNamesTheRule(t *testing.T) {
	u, rest := ncpStream(t, 2)
	if _, err := u.ApplyDelta(rest[:200]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if _, err := NewPublisher(path, 3).Publish(u, u.Fit()); err != nil {
		t.Fatal(err)
	}
	f, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Algorithm != "ncp" || f.NTF == nil || f.NTF.InnerIters != 2 {
		t.Fatalf("published ncp stream as %q with NTF %+v", f.Algorithm, f.NTF)
	}
	for n, data := range f.Factors {
		for i, v := range data {
			if v < 0 {
				t.Fatalf("published factor %d entry %d = %v", n, i, v)
			}
		}
	}

	ls := trainedUpdater(t, tensor.GenLowRank(13, 2000, 3, 0.05, 40, 30, 20), 3, 3, 13)
	if _, err := NewPublisher(path, 13).Publish(ls, 0.5); err != nil {
		t.Fatal(err)
	}
	if f, err = ckpt.Load(path); err != nil {
		t.Fatal(err)
	}
	if f.Algorithm != "stream" || f.NTF != nil {
		t.Fatalf("published least-squares stream as %q with NTF %+v", f.Algorithm, f.NTF)
	}
}

// A restarted publisher continues the versions on disk: a new Publisher on
// the path of one that published five versions publishes version six, so
// the live file is again the newest retained version. With the live file
// corrupt, the retained versions alone say where to continue.
func TestPublisherContinuesAfterRestart(t *testing.T) {
	x := tensor.GenLowRank(14, 2000, 3, 0.05, 40, 30, 20)
	u := trainedUpdater(t, x, 3, 3, 14)
	path := filepath.Join(t.TempDir(), "m.ckpt")
	pub := NewPublisher(path, 14)
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(u, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	restart := func(want int) {
		t.Helper()
		v, err := NewPublisher(path, 14).Publish(u, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		live, err := ckpt.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := ckpt.ListVersions(path)
		if err != nil {
			t.Fatal(err)
		}
		if v != want || live.Iter != want || vs[len(vs)-1] != want {
			t.Fatalf("restarted publisher wrote v%d, live iter %d, retained %v; want v%d throughout", v, live.Iter, vs, want)
		}
	}
	restart(6)
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	restart(7)
}
