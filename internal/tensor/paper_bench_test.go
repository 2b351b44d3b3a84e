package tensor_test

import (
	"bufio"
	"flag"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"cstf/internal/tensor"
	"cstf/internal/workload"
)

// BenchmarkPaperSetup is the set-up of the paper's delicious3d at a tenth of
// its full scale — about 14 M nonzeros — on this package's code path: the
// chunked Zipf draws, DedupSum, and every mode index at once. It reports
// each phase's seconds, the coordinate key width DedupSum sorted by, and
// the process's peak RSS. It holds about a gigabyte, so it is opt-in: it
// runs only when -bench names it, e.g.
//
//	go test ./internal/tensor -run '^$' -bench PaperSetup -benchtime 1x
func BenchmarkPaperSetup(b *testing.B) {
	if !strings.Contains(flag.Lookup("test.bench").Value.String(), "PaperSetup") {
		b.Skip("opt-in: run with -bench PaperSetup")
	}
	const scale = 0.1
	cfg, err := workload.ByName("delicious3d")
	if err != nil {
		b.Fatal(err)
	}
	dims, nnz := cfg.ScaledDims(scale), cfg.ScaledNNZ(scale)
	var gen, dedup, index time.Duration
	var x *tensor.COO
	for i := 0; i < b.N; i++ {
		x = nil // let the previous iteration's tensor go before drawing the next
		t0 := time.Now()
		x = tensor.New(dims...)
		x.Entries = tensor.ZipfEntries(cfg.Seed, nnz, cfg.Skew, dims)
		t1 := time.Now()
		x.DedupSum()
		t2 := time.Now()
		x.ModeIndexes(0)
		t3 := time.Now()
		gen, dedup, index = gen+t1.Sub(t0), dedup+t2.Sub(t1), index+t3.Sub(t2)
	}
	keyBits := 0
	for m := range dims {
		var seen uint32
		for i := range x.Entries {
			seen |= x.Entries[i].Idx[m]
		}
		keyBits += bits.Len32(seen)
	}
	n := float64(b.N)
	b.ReportMetric(gen.Seconds()/n, "gen_s")
	b.ReportMetric(dedup.Seconds()/n, "dedup_s")
	b.ReportMetric(index.Seconds()/n, "index_s")
	b.ReportMetric(float64(x.NNZ()), "nnz")
	b.ReportMetric(float64(keyBits), "key_bits")
	b.ReportMetric(peakRSSMB(), "peak_rss_mb")
}

// peakRSSMB is VmHWM of this process in MB; 0 where /proc does not have it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
