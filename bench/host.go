package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo stamps every record with the machine it was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	P          int    `json:"p"` // the one concurrency number the workloads use
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"` // 0 when sysfs does not say
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// loadP is the only concurrency number of the benchmark: solver
// parallelism, dist workers and query clients all use it.
func loadP() int { return min(runtime.GOMAXPROCS(0), 4) }

func readHost() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          loadP(),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// llcBytes reads the size of the highest-level cache of cpu0 from sysfs.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	bestLevel := -1
	for _, d := range dirs {
		lvl, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || lvl < bestLevel {
			continue
		}
		size := readTrim(filepath.Join(d, "size"))
		mult := int64(1)
		switch {
		case strings.HasSuffix(size, "K"):
			mult, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			mult, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		n, err := strconv.ParseInt(size, 10, 64)
		if err != nil {
			continue
		}
		if lvl > bestLevel || n*mult > best {
			best, bestLevel = n*mult, lvl
		}
	}
	return best
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// commit names the source the binary was built from: the VCS stamp when
// the toolchain recorded one, else `git rev-parse`, else "unknown" (the
// driver's checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// peakRSSMB is VmHWM of this process, the high-water mark of its resident
// set, in MB; 0 where /proc does not provide it.
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

// streamReadArrayBytes sizes the bandwidth probe's array: four times the
// last-level cache so the read cannot be served from it, within a cap that
// keeps the probe's memory below the workloads' own.
func streamReadArrayBytes(llc int64) int64 {
	const floor, ceil = 128 << 20, 1536 << 20
	return min(max(4*llc, floor), ceil)
}

// streamReadGBps measures the host's sustainable read bandwidth with p
// goroutines each summing its share of one large array; best of three
// passes after a first touch.
func streamReadGBps(bytes int64, p int) float64 {
	n := int(bytes / 8)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i & 7)
	}
	best := 0.0
	sinks := make([]float64, p)
	for pass := 0; pass < 3; pass++ {
		var wg sync.WaitGroup
		start := time.Now()
		for k := 0; k < p; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				var s0, s1, s2, s3 float64
				part := data[n*k/p : n*(k+1)/p]
				i := 0
				for ; i+4 <= len(part); i += 4 {
					s0 += part[i]
					s1 += part[i+1]
					s2 += part[i+2]
					s3 += part[i+3]
				}
				sinks[k] = s0 + s1 + s2 + s3
			}(k)
		}
		wg.Wait()
		if gbps := float64(n*8) / time.Since(start).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	runtime.KeepAlive(sinks)
	return best
}
