// Command dualload is a load generator for dualserved: concurrent clients
// replay a dedup-heavy decision mix against POST /v1/decide (one HTTP round
// trip per decision) and/or POST /v1/batch (NDJSON batches drained by the
// server's dedup scheduler), reporting throughput and a latency histogram
// per mode — the measurement behind the batch subsystem's perf claims
// (BENCH_PR5.json, EXPERIMENTS.md).
//
// Usage:
//
//	dualload -addr http://127.0.0.1:8372 [-clients 8] [-requests 200]
//	         [-distinct 8] [-batch-size 64] [-mode both|decide|batch]
//	         [-engine name] [-json] [-retry] [-retry-max n] [-retry-base d]
//
// -addr accepts a comma-separated list of base URLs for cluster runs:
// each call picks a replica uniformly at random (seeded per client, per
// request in decide mode, per batch in batch mode), so a dedup-heavy mix
// hits every replica with every canonical class — the shape that
// exercises peer cache-fills (docs/CLUSTER.md). Random, not round-robin:
// a round-robin keyed on the request counter correlates with the row
// cycle and can pin each canonical class to one replica. The -json
// report then carries a per-replica "servers" section scraped from each
// replica's /metricsz.
//
// With -retry the client heals through the server's resilience responses
// the way a production caller should: shed answers (503) and contained
// panics (500) are retried up to -retry-max times under jittered
// exponential backoff from -retry-base, honoring the server's Retry-After
// hint when it is longer; budget timeouts (504) are terminal — the same
// instance would time out again. The report carries the error taxonomy
// (sheds / panics / timeouts seen, retries spent), so a chaos run can
// assert the server shed within bounds and healed every contained panic.
//
// The mix holds -distinct canonically distinct instances (matchings of
// growing width with dual, near-dual and self-dual variants); every client
// issues -requests decisions sampled round-robin from the mix, a third of
// them under renamed vertices — the repetitive, rename-heavy stream shape
// of the dualize-and-advance applications. With -mode both the same mix
// runs first as individual decides, then as batches, and the report carries
// the batch/decide throughput ratio.
//
// The -json report carries, per run, the full client-side latency
// distribution (cumulative hist_counts over the shared log-scale
// hist_bucket_bounds_us), and a "server" section with per-endpoint
// percentiles scraped from the server's /metricsz after the runs — the
// same traffic seen from the other side of the socket.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dualspace/internal/obs"
)

type instance struct{ g, h string }

// matchingText renders the k-edge matching and its 2^k-edge dual (minus one
// edge when dual is false) with a naming tag, so tagged copies are
// renamed-isomorphic: distinct names, identical canonical fingerprints.
func matchingText(k int, dual bool, tag string) instance {
	var g, h strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&g, "%sv%da %sv%db\n", tag, i, tag, i)
	}
	limit := 1 << k
	if !dual {
		limit--
	}
	for mask := 0; mask < limit; mask++ {
		for i := 0; i < k; i++ {
			side := "a"
			if mask&(1<<i) != 0 {
				side = "b"
			}
			fmt.Fprintf(&h, "%sv%d%s ", tag, i, side)
		}
		h.WriteString("\n")
	}
	return instance{g.String(), h.String()}
}

// triangleText is the self-dual majority triangle under a naming tag.
func triangleText(tag string) instance {
	e := func(a, b string) string { return tag + a + " " + tag + b + "\n" }
	t := e("a", "b") + e("b", "c") + e("a", "c")
	return instance{t, t}
}

// mix builds n canonically distinct instances: the self-dual triangle plus
// dual and near-dual matchings of growing width. Renaming never leaves a
// canonical class, so distinctness comes from structure alone; the pool
// tops out at 15 distinct shapes (triangle + matchings 2..8 × {dual,
// near-dual}) and n is clamped to it.
func mix(n int) []instance {
	out := []instance{triangleText("")}
	for k := 2; len(out) < n && k <= 8; k++ {
		out = append(out, matchingText(k, true, ""))
		if len(out) < n {
			out = append(out, matchingText(k, false, ""))
		}
	}
	return out
}

// retag renames an instance's vertices (prefixing every name) without
// changing its canonical fingerprint class.
func retag(in instance, tag string) instance {
	if tag == "" {
		return in
	}
	re := func(text string) string {
		var b strings.Builder
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			fields := strings.Fields(line)
			for i, f := range fields {
				fields[i] = tag + f
			}
			b.WriteString(strings.Join(fields, " ") + "\n")
		}
		return b.String()
	}
	return instance{re(in.g), re(in.h)}
}

// request i of a client's replay: instance + rename tag.
func requestBody(instances []instance, i int) instance {
	in := instances[i%len(instances)]
	switch i % 3 {
	case 1:
		return retag(in, "x_")
	case 2:
		return retag(in, "yy_")
	}
	return in
}

// precomputeRows marshals the replay's request lines once (the mix cycles
// every len(instances)×3 requests), so the timed loops replay canned bytes
// instead of re-tagging and re-marshaling per call — the client must not be
// the bottleneck of its own measurement. Each line ends in '\n' (NDJSON
// row; also a valid /v1/decide body).
func precomputeRows(instances []instance, eng string) [][]byte {
	cycle := len(instances) * 3
	rows := make([][]byte, cycle)
	for i := range rows {
		in := requestBody(instances, i)
		b, err := json.Marshal(map[string]string{"g": in.g, "h": in.h, "engine": eng})
		if err != nil {
			panic(err)
		}
		rows[i] = append(b, '\n')
	}
	return rows
}

// taxonomy counts the server's resilience responses seen during one run,
// keyed by the docs/API.md error taxonomy. Under -retry, sheds and panics
// that later healed still count here (the report shows how hard the server
// pushed back) while Errors counts only terminal failures.
type taxonomy struct {
	// Sheds counts 503 answers (admission queue full, queue-wait expired,
	// or drain in progress).
	Sheds int `json:"sheds,omitempty"`
	// Panics counts 500 answers (a contained internal panic; the server
	// self-heals the poisoned worker, so a retry lands on a fresh session).
	Panics int `json:"panics,omitempty"`
	// Timeouts counts 504 answers (server compute budget exhausted); these
	// are terminal even under -retry — the same instance would only time
	// out again.
	Timeouts int `json:"timeouts,omitempty"`
	// Retries counts extra HTTP calls spent healing sheds and panics.
	Retries int `json:"retries,omitempty"`
}

func (t *taxonomy) add(o taxonomy) {
	t.Sheds += o.Sheds
	t.Panics += o.Panics
	t.Timeouts += o.Timeouts
	t.Retries += o.Retries
}

// retryCfg drives postRetry; zero value means fail on first answer.
type retryCfg struct {
	enabled bool
	max     int           // extra attempts per request
	base    time.Duration // first backoff; doubles per attempt, ±50% jitter
}

// backoff is the jittered exponential wait before retry attempt n (0-based):
// base·2ⁿ scaled uniformly into [0.5, 1.5). The rng is per-client and
// seeded, so a chaos run's wait pattern is reproducible.
func (rc retryCfg) backoff(n int, rng *rand.Rand) time.Duration {
	d := rc.base << uint(min(n, 16))
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// retryAfterHint parses the server's Retry-After header (delay-seconds
// form); 0 when absent or unparsable.
func retryAfterHint(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// postRetry issues one POST, healing retryable resilience answers when
// rc.enabled: 503 (shed) and 500 (contained panic) back off — jittered
// exponential, never shorter than the server's Retry-After hint — and go
// again, up to rc.max extra attempts. Every answer class is tallied into
// tax; calls counts HTTP round trips. The final response comes back with
// its body unread (callers drain and close it), exactly like hc.Post.
func postRetry(hc *http.Client, url, ctype string, body []byte, rc retryCfg, rng *rand.Rand, tax *taxonomy, calls *int) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := hc.Post(url, ctype, bytes.NewReader(body))
		*calls++
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			tax.Sheds++
		case http.StatusInternalServerError:
			tax.Panics++
		case http.StatusGatewayTimeout:
			tax.Timeouts++
		}
		retryable := resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusInternalServerError
		if !rc.enabled || !retryable || attempt >= rc.max {
			return resp, nil
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		wait := rc.backoff(attempt, rng)
		if hint := retryAfterHint(resp); hint > wait {
			wait = hint
		}
		time.Sleep(wait)
		tax.Retries++
	}
}

// runResult is one mode's measurement (a row of the -json report).
type runResult struct {
	Mode      string `json:"mode"`
	Clients   int    `json:"clients"`
	Items     int    `json:"items"`
	HTTPCalls int    `json:"http_calls"`
	Errors    int    `json:"errors"`
	taxonomy
	BatchSize   int     `json:"batch_size,omitempty"`
	Seconds     float64 `json:"seconds"`
	ItemsPerSec float64 `json:"items_per_sec"`
	P50Us       int64   `json:"p50_us"`
	P90Us       int64   `json:"p90_us"`
	P99Us       int64   `json:"p99_us"`
	MaxUs       int64   `json:"max_us"`
	// HistCounts is the full client-side latency distribution: cumulative
	// call counts per bucket of the report's hist_bucket_bounds_us, with
	// one final +Inf bucket — the same log-scale bounds the server's
	// /metricsz histograms use, so client and server distributions overlay
	// directly.
	HistCounts []int64 `json:"hist_counts,omitempty"`
}

// serverEndpointStats is one endpoint's server-side latency summary,
// interpolated from the /metricsz request-duration histogram. The counters
// cover the server's lifetime, not just this run.
type serverEndpointStats struct {
	Count int64 `json:"count"`
	P50Us int64 `json:"p50_us"`
	P90Us int64 `json:"p90_us"`
	P99Us int64 `json:"p99_us"`
}

// report is the -json document.
type report struct {
	Addr              string      `json:"addr"`
	RequestsPerClient int         `json:"requests_per_client"`
	Distinct          int         `json:"distinct"`
	Engine            string      `json:"engine,omitempty"`
	Retry             bool        `json:"retry,omitempty"`
	Runs              []runResult `json:"runs"`
	// HistBucketBoundsUs are the shared upper bounds (µs) of every run's
	// hist_counts; the final count bucket is +Inf.
	HistBucketBoundsUs []float64 `json:"hist_bucket_bounds_us,omitempty"`
	// Server carries per-endpoint latency percentiles scraped from the
	// server's own /metricsz after the runs — the server-side view of the
	// same traffic, free of client scheduling noise. Absent when the
	// server does not expose /metricsz. With one -addr only; multi-replica
	// runs fill Servers instead.
	Server map[string]serverEndpointStats `json:"server,omitempty"`
	// Servers is the per-replica version of Server, keyed by base URL,
	// present when -addr lists more than one replica.
	Servers map[string]map[string]serverEndpointStats `json:"servers,omitempty"`
	// SpeedupBatchVsDecide is the items/sec ratio (only with -mode both).
	SpeedupBatchVsDecide float64 `json:"speedup_batch_vs_decide,omitempty"`
}

// histBoundsUs are the client histogram's bucket upper bounds in
// microseconds (obs.DurationBuckets, the server's log-scale bounds).
func histBoundsUs() []float64 {
	sec := obs.DurationBuckets()
	out := make([]float64, len(sec))
	for i, b := range sec {
		out[i] = b * 1e6
	}
	return out
}

// histCounts buckets sorted latencies into cumulative counts over
// histBoundsUs plus a final +Inf bucket.
func histCounts(sorted []time.Duration) []int64 {
	bounds := histBoundsUs()
	out := make([]int64, len(bounds)+1)
	i := 0
	for b, bound := range bounds {
		for i < len(sorted) && float64(sorted[i].Microseconds()) <= bound {
			i++
		}
		out[b] = int64(i)
	}
	out[len(bounds)] = int64(len(sorted))
	return out
}

func percentile(sorted []time.Duration, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i].Microseconds()
}

func summarize(mode string, clients, items, calls, errors, batchSize int, wall time.Duration, lat []time.Duration) runResult {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r := runResult{
		Mode: mode, Clients: clients, Items: items, HTTPCalls: calls,
		Errors: errors, BatchSize: batchSize, Seconds: wall.Seconds(),
		P50Us: percentile(lat, 0.50), P90Us: percentile(lat, 0.90),
		P99Us: percentile(lat, 0.99),
	}
	if len(lat) > 0 {
		r.MaxUs = lat[len(lat)-1].Microseconds()
		r.HistCounts = histCounts(lat)
	}
	if wall > 0 {
		r.ItemsPerSec = float64(items) / wall.Seconds()
	}
	return r
}

// scrapeServerStats reads the server's /metricsz and interpolates
// per-endpoint latency percentiles out of the
// dualspace_http_request_duration_seconds histograms. A missing or
// unparsable exposition returns an error; the caller degrades gracefully
// (older servers have no /metricsz).
func scrapeServerStats(hc *http.Client, addr string) (map[string]serverEndpointStats, error) {
	resp, err := hc.Get(addr + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metricsz: status %d", resp.StatusCode)
	}
	type bucket struct {
		le  float64
		cum int64
	}
	byEndpoint := make(map[string][]bucket)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	const prefix = `dualspace_http_request_duration_seconds_bucket{`
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		end := strings.Index(rest, "} ")
		if end < 0 {
			continue
		}
		labels, valText := rest[:end], rest[end+2:]
		var ep string
		le := math.Inf(1)
		for _, pair := range strings.Split(labels, ",") {
			if v, ok := strings.CutPrefix(pair, `endpoint="`); ok {
				ep = strings.TrimSuffix(v, `"`)
			} else if v, ok := strings.CutPrefix(pair, `le="`); ok {
				v = strings.TrimSuffix(v, `"`)
				if v != "+Inf" {
					le, _ = strconv.ParseFloat(v, 64)
				}
			}
		}
		cum, err := strconv.ParseFloat(valText, 64)
		if err != nil || ep == "" {
			continue
		}
		byEndpoint[ep] = append(byEndpoint[ep], bucket{le: le, cum: int64(cum)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(byEndpoint) == 0 {
		return nil, fmt.Errorf("no request-duration histograms in /metricsz")
	}
	out := make(map[string]serverEndpointStats)
	for ep, bs := range byEndpoint {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		total := bs[len(bs)-1].cum
		if total == 0 {
			continue
		}
		pct := func(q float64) int64 {
			target := int64(math.Ceil(q * float64(total)))
			lo, loCum := 0.0, int64(0)
			for _, b := range bs {
				if b.cum >= target {
					hi := b.le
					if math.IsInf(hi, 1) {
						return int64(lo * 1e6) // open-ended top bucket: report its floor
					}
					frac := float64(target-loCum) / float64(b.cum-loCum)
					return int64((lo + (hi-lo)*frac) * 1e6)
				}
				lo, loCum = b.le, b.cum
			}
			return int64(lo * 1e6)
		}
		out[ep] = serverEndpointStats{
			Count: total, P50Us: pct(0.50), P90Us: pct(0.90), P99Us: pct(0.99),
		}
	}
	return out, nil
}

// client is shared across workers: keep-alives sized to the worker count so
// the decide mode reuses connections like a real pooled client would.
func newHTTPClient(clients int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	return &http.Client{Transport: tr, Timeout: 5 * time.Minute}
}

// runDecide replays the mix as individual /v1/decide calls, each sent to
// a replica of addrs picked uniformly at random. Under -retry the latency of a healed request covers the
// whole retry chain, backoffs included — the time a production caller
// actually waited for the answer.
func runDecide(hc *http.Client, addrs []string, rows [][]byte, clients, requests int, rc retryCfg) runResult {
	var (
		mu     sync.Mutex
		lat    []time.Duration
		errors int
		calls  int
		tax    taxonomy
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var myLat []time.Duration
			var myTax taxonomy
			myErrs, myCalls := 0, 0
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < requests; i++ {
				body := rows[(c*requests+i)%len(rows)]
				// Pick the target uniformly at random (seeded per client, so
				// replays are deterministic). A round-robin keyed on the same
				// counter as the row pick would lock each canonical class to
				// one replica whenever len(addrs) divides the row cycle —
				// silently erasing the cross-replica duplication a cluster
				// run is supposed to exercise.
				addr := addrs[0]
				if len(addrs) > 1 {
					addr = addrs[rng.Intn(len(addrs))]
				}
				t0 := time.Now()
				resp, err := postRetry(hc, addr+"/v1/decide", "application/json", body, rc, rng, &myTax, &myCalls)
				if err != nil {
					myErrs++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					myErrs++
				}
				myLat = append(myLat, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, myLat...)
			errors += myErrs
			calls += myCalls
			tax.add(myTax)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	r := summarize("decide", clients, clients*requests, calls, errors, 0, wall, lat)
	r.taxonomy = tax
	return r
}

// runBatch replays the same mix as NDJSON batches of batchSize, each
// batch sent to a replica of addrs picked uniformly at random. Under -retry a shed batch (503 before
// any row was drained) is resubmitted whole; row-level error rows inside
// a 200 stream stay errors — re-running a partially answered batch would
// double-count its items.
func runBatch(hc *http.Client, addrs []string, rows [][]byte, clients, requests, batchSize int, rc retryCfg) runResult {
	var (
		mu     sync.Mutex
		lat    []time.Duration
		errors int
		calls  int
		tax    taxonomy
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var myLat []time.Duration
			var myTax taxonomy
			myErrs, myCalls := 0, 0
			rng := rand.New(rand.NewSource(int64(c) + 101))
			for off := 0; off < requests; off += batchSize {
				n := batchSize
				if off+n > requests {
					n = requests - off
				}
				var body bytes.Buffer
				for i := 0; i < n; i++ {
					body.Write(rows[(c*requests+off+i)%len(rows)])
				}
				// Random target per batch, same rationale as the decide loop:
				// counter-keyed round-robin correlates with the row cycle.
				addr := addrs[0]
				if len(addrs) > 1 {
					addr = addrs[rng.Intn(len(addrs))]
				}
				t0 := time.Now()
				resp, err := postRetry(hc, addr+"/v1/batch", "application/x-ndjson", body.Bytes(), rc, rng, &myTax, &myCalls)
				if err != nil {
					myErrs += n
					continue
				}
				// Count rows by cheap byte sniffing: fully JSON-decoding
				// every response line would make the measuring client the
				// bottleneck on a shared machine (this is a load tool, and
				// the generated vertex names cannot collide with the
				// markers).
				rows, termOK := 0, false
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
				for sc.Scan() {
					line := sc.Bytes()
					switch {
					case bytes.Contains(line, []byte(`"index"`)):
						rows++
						if bytes.Contains(line, []byte(`"error"`)) {
							myErrs++
						}
					case bytes.Contains(line, []byte(`"done":true`)):
						termOK = true
					}
				}
				resp.Body.Close()
				if rows != n || !termOK {
					myErrs += n - rows
				}
				myLat = append(myLat, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, myLat...)
			errors += myErrs
			calls += myCalls
			tax.add(myTax)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	r := summarize("batch", clients, clients*requests, calls, errors, batchSize, wall, lat)
	r.taxonomy = tax
	return r
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8372", "dualserved base URL, or a comma-separated replica list (each request picks a replica uniformly at random)")
	clients := flag.Int("clients", 8, "concurrent clients")
	requests := flag.Int("requests", 200, "decisions per client")
	distinct := flag.Int("distinct", 8, "canonically distinct instances in the mix")
	batchSize := flag.Int("batch-size", 64, "decisions per /v1/batch call")
	mode := flag.String("mode", "both", "workload: decide, batch, both")
	eng := flag.String("engine", "", "engine field on every request (empty = portfolio)")
	asJSON := flag.Bool("json", false, "machine-readable report on stdout")
	retry := flag.Bool("retry", false, "retry shed (503) and contained-panic (500) answers with backoff")
	retryMax := flag.Int("retry-max", 5, "extra attempts per request under -retry")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "first backoff under -retry (doubles per attempt, ±50% jitter)")
	flag.Parse()
	if flag.NArg() != 0 || *clients < 1 || *requests < 1 || *distinct < 1 || *batchSize < 1 || *retryMax < 0 || *retryBase < 0 {
		fmt.Fprintln(os.Stderr, "usage: dualload [-addr URL] [-clients n] [-requests n] [-distinct n] [-batch-size n] [-mode decide|batch|both] [-engine name] [-json] [-retry] [-retry-max n] [-retry-base d]")
		os.Exit(2)
	}
	if *mode != "decide" && *mode != "batch" && *mode != "both" {
		fmt.Fprintf(os.Stderr, "dualload: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "dualload: empty -addr")
		os.Exit(2)
	}

	instances := mix(*distinct)
	hc := newHTTPClient(*clients)
	// One throwaway call per replica verifies they are reachable before
	// timing.
	for _, a := range addrs {
		if resp, err := hc.Get(a + "/healthz"); err != nil {
			fmt.Fprintln(os.Stderr, "dualload: server unreachable:", err)
			os.Exit(1)
		} else {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	rc := retryCfg{enabled: *retry, max: *retryMax, base: *retryBase}
	rep := report{Addr: *addr, RequestsPerClient: *requests, Distinct: *distinct, Engine: *eng, Retry: *retry}
	rows := precomputeRows(instances, *eng)
	var decideRun, batchRun *runResult
	if *mode == "decide" || *mode == "both" {
		r := runDecide(hc, addrs, rows, *clients, *requests, rc)
		rep.Runs = append(rep.Runs, r)
		decideRun = &r
	}
	if *mode == "batch" || *mode == "both" {
		r := runBatch(hc, addrs, rows, *clients, *requests, *batchSize, rc)
		rep.Runs = append(rep.Runs, r)
		batchRun = &r
	}
	if decideRun != nil && batchRun != nil && decideRun.ItemsPerSec > 0 {
		rep.SpeedupBatchVsDecide = batchRun.ItemsPerSec / decideRun.ItemsPerSec
	}
	rep.HistBucketBoundsUs = histBoundsUs()
	if len(addrs) == 1 {
		if server, err := scrapeServerStats(hc, addrs[0]); err == nil {
			rep.Server = server
		} else if !*asJSON {
			fmt.Fprintln(os.Stderr, "dualload: no server-side stats:", err)
		}
	} else {
		rep.Servers = make(map[string]map[string]serverEndpointStats)
		for _, a := range addrs {
			if server, err := scrapeServerStats(hc, a); err == nil {
				rep.Servers[a] = server
			} else if !*asJSON {
				fmt.Fprintln(os.Stderr, "dualload: no server-side stats from", a, ":", err)
			}
		}
		if len(rep.Servers) == 0 {
			rep.Servers = nil
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "dualload:", err)
			os.Exit(1)
		}
		exitOnErrors(rep)
		return
	}
	fmt.Printf("dualload: %d clients × %d requests, %d distinct instances, against %s\n",
		*clients, *requests, *distinct, *addr)
	for _, r := range rep.Runs {
		extra := ""
		if r.Mode == "batch" {
			extra = fmt.Sprintf(" (batch size %d)", r.BatchSize)
		}
		fmt.Printf("  %-6s %8.0f items/s  %6d items in %6.2fs  %4d HTTP calls%s\n",
			r.Mode, r.ItemsPerSec, r.Items, r.Seconds, r.HTTPCalls, extra)
		fmt.Printf("         latency/call µs: p50 %d  p90 %d  p99 %d  max %d  (errors %d)\n",
			r.P50Us, r.P90Us, r.P99Us, r.MaxUs, r.Errors)
		if r.Sheds+r.Panics+r.Timeouts+r.Retries > 0 {
			fmt.Printf("         resilience:      sheds %d  panics %d  timeouts %d  retries %d\n",
				r.Sheds, r.Panics, r.Timeouts, r.Retries)
		}
		if sv, ok := rep.Server[r.Mode]; ok {
			fmt.Printf("         server-side µs:  p50 %d  p90 %d  p99 %d  (%d requests since server start)\n",
				sv.P50Us, sv.P90Us, sv.P99Us, sv.Count)
		}
	}
	if rep.SpeedupBatchVsDecide > 0 {
		fmt.Printf("  batch vs decide throughput: %.2f×\n", rep.SpeedupBatchVsDecide)
	}
	exitOnErrors(rep)
}

// exitOnErrors fails the process when any request errored, so scripted runs
// (CI, bench recording) cannot silently measure a broken server.
func exitOnErrors(rep report) {
	for _, r := range rep.Runs {
		if r.Errors > 0 {
			fmt.Fprintf(os.Stderr, "dualload: %d errors in %s run\n", r.Errors, r.Mode)
			os.Exit(1)
		}
	}
}
