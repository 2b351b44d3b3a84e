package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Query load over HTTP. Both generators use `clients` goroutines with one
// keep-alive connection each and draw the conditioning row from a
// per-client generator seeded from the workload seed.

// verifyEvery is the sampling stride of answer verification: every 50th
// reply of a client is kept and later compared with a direct model scan.
const verifyEvery = 50

// topKQuery is the one query shape the benchmark sends: the ten best rows
// of mode 1 given a row of mode 0 ("items for this user").
const (
	queryMode  = 1
	queryGiven = 0
	queryK     = 10
)

// answer is one sampled /topk reply, kept for verification after the
// phase (when every model version that served it is known).
type answer struct {
	Row     int
	Version uint64 `json:"model_version"`
	Results []struct {
		Index int     `json:"index"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	Seconds   float64
	Completed int
	Failed    int       // transport errors and non-200 replies
	LatMS     []float64 // per completed query
	LateMS    []float64 // open loop only: send time minus due time
	Sampled   []answer
}

func (p phaseStats) qps() float64 { return float64(p.Completed) / p.Seconds }

// splitmix is a tiny deterministic generator for row choices.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// queryOnce sends one /topk and reads the whole reply. keep asks for the
// parsed answer.
func queryOnce(c *http.Client, base string, row int, keep bool) (*answer, error) {
	resp, err := c.Get(fmt.Sprintf("%s/topk?mode=%d&given=%d&row=%d&k=%d", base, queryMode, queryGiven, row, queryK))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if !keep {
		return nil, nil
	}
	a := &answer{Row: row}
	if err := json.Unmarshal(body, a); err != nil {
		return nil, err
	}
	return a, nil
}

// merge folds one client's measurements into the phase total.
func (p *phaseStats) merge(o phaseStats) {
	p.Completed += o.Completed
	p.Failed += o.Failed
	p.LatMS = append(p.LatMS, o.LatMS...)
	p.LateMS = append(p.LateMS, o.LateMS...)
	p.Sampled = append(p.Sampled, o.Sampled...)
}

// prewarm queries every row in [0, rows) once, split over the clients.
func prewarm(base string, clients, rows int) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for row := c; row < rows && errs[c] == nil; row += clients {
				_, errs[c] = queryOnce(hc, base, row, false)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedLoop runs `clients` callers for dur; each sends its next query only
// after the previous reply, with rows uniform over [0, rows).
func closedLoop(base string, clients int, dur time.Duration, seed uint64, rows int) phaseStats {
	parts := make([]phaseStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			rng := splitmix(seed ^ uint64(c+1)*0xC105ED)
			st := &parts[c]
			for n := 0; time.Now().Before(deadline); n++ {
				row := int(rng.next() % uint64(rows))
				t0 := time.Now()
				a, err := queryOnce(hc, base, row, n%verifyEvery == 0)
				if err != nil {
					st.Failed++
					continue
				}
				st.LatMS = append(st.LatMS, float64(time.Since(t0).Nanoseconds())/1e6)
				st.Completed++
				if a != nil {
					st.Sampled = append(st.Sampled, *a)
				}
			}
		}(c)
	}
	wg.Wait()
	total := phaseStats{Seconds: time.Since(start).Seconds()}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// openLoop sends at a fixed rate for dur regardless of replies: request i
// is due at start + i/rate, is taken by whichever client is free, and its
// latency is timed from its due time, so a stall is charged to every
// request that had to wait behind it. LateMS records how late each send
// was.
func openLoop(base string, clients int, dur time.Duration, rate float64, seed uint64, rows int) phaseStats {
	total := int(dur.Seconds() * rate)
	parts := make([]phaseStats, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			st := &parts[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				rng := splitmix(seed ^ uint64(i+1)*0x09E17)
				row := int(rng.next() % uint64(rows))
				sent := time.Now()
				a, err := queryOnce(hc, base, row, i%verifyEvery == 0)
				if err != nil {
					st.Failed++
					continue
				}
				st.LateMS = append(st.LateMS, float64(sent.Sub(due).Nanoseconds())/1e6)
				st.LatMS = append(st.LatMS, float64(time.Since(due).Nanoseconds())/1e6)
				st.Completed++
				if a != nil {
					st.Sampled = append(st.Sampled, *a)
				}
			}
		}(c)
	}
	wg.Wait()
	out := phaseStats{Seconds: time.Since(start).Seconds()}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}
