package service

// Tests for the observability surface: /metricsz exposition validity,
// ?trace=1 stage accounting, /statsz–/metricsz agreement, and the access
// log.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dualspace/internal/gen"
	"dualspace/internal/hgio"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels string // raw text between the braces ("" when unlabeled)
	value  float64
}

// scrapeMetrics fetches and parses /metricsz, returning the samples and
// the TYPE declarations (family name → type).
func scrapeMetrics(t *testing.T, url string) ([]promSample, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metricsz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var samples []promSample
	types := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("unexpected comment line: %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			s.labels = s.name[i+1 : len(s.name)-1]
			s.name = s.name[:i]
		}
		samples = append(samples, s)
	}
	return samples, types
}

// find returns the value of the first sample matching name and containing
// every given label fragment.
func find(samples []promSample, name string, frags ...string) (float64, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		all := true
		for _, f := range frags {
			if !strings.Contains(s.labels, f) {
				all = false
				break
			}
		}
		if all {
			return s.value, true
		}
	}
	return 0, false
}

// stripLe removes the le pair from a bucket label set, keying the buckets
// of one histogram series.
func stripLe(labels string) (rest, le string) {
	parts := strings.Split(labels, ",")
	kept := parts[:0]
	for _, p := range parts {
		if strings.HasPrefix(p, `le="`) {
			le = strings.TrimSuffix(strings.TrimPrefix(p, `le="`), `"`)
			continue
		}
		kept = append(kept, p)
	}
	return strings.Join(kept, ","), le
}

func TestMetricszPrometheusValid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One computed decision and one cache hit, so the decide histograms and
	// cache counters carry data.
	for i := 0; i < 2; i++ {
		if code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual}); code != 200 || out["dual"] != true {
			t.Fatalf("decide: code=%d out=%v", code, out)
		}
	}
	samples, types := scrapeMetrics(t, ts.URL)

	// Every sample's family must have a TYPE declaration.
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok {
				if types[f] == "histogram" {
					return f
				}
			}
		}
		return name
	}
	for _, s := range samples {
		if _, ok := types[base(s.name)]; !ok {
			t.Errorf("sample %s has no TYPE declaration", s.name)
		}
	}
	for fam, typ := range types {
		switch typ {
		case "counter", "gauge", "histogram":
		default:
			t.Errorf("family %s has unknown type %q", fam, typ)
		}
	}

	// Histogram series: buckets cumulative and monotone, terminated by
	// le="+Inf" whose value equals the series _count.
	type histKey struct{ name, labels string }
	buckets := make(map[histKey][]float64)
	lastLe := make(map[histKey]string)
	for _, s := range samples {
		fam, ok := strings.CutSuffix(s.name, "_bucket")
		if !ok || types[fam] != "histogram" {
			continue
		}
		rest, le := stripLe(s.labels)
		k := histKey{fam, rest}
		buckets[k] = append(buckets[k], s.value)
		lastLe[k] = le
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for k, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i] < bs[i-1] {
				t.Errorf("%s{%s}: bucket %d not cumulative: %v", k.name, k.labels, i, bs)
			}
		}
		if lastLe[k] != "+Inf" {
			t.Errorf("%s{%s}: last bucket le=%q, want +Inf", k.name, k.labels, lastLe[k])
		}
		count, ok := find(samples, k.name+"_count", strings.Split(k.labels, ",")...)
		if k.labels == "" {
			count, ok = find(samples, k.name+"_count")
		}
		if !ok {
			t.Errorf("%s{%s}: missing _count", k.name, k.labels)
		} else if count != bs[len(bs)-1] {
			t.Errorf("%s{%s}: _count=%v != +Inf bucket %v", k.name, k.labels, count, bs[len(bs)-1])
		}
	}

	// The core series the dashboards (and the CI smoke test) rely on.
	if v, ok := find(samples, "dualspace_http_requests_total", `endpoint="decide"`); !ok || v < 2 {
		t.Errorf("http_requests_total{decide} = %v, %v", v, ok)
	}
	if v, ok := find(samples, "dualspace_cache_hits_total"); !ok || v < 1 {
		t.Errorf("cache_hits_total = %v, %v", v, ok)
	}
	if v, ok := find(samples, "dualspace_decisions_total", `engine="portfolio"`); !ok || v < 1 {
		t.Errorf("decisions_total{portfolio} = %v, %v", v, ok)
	}
	if _, ok := find(samples, "dualspace_build_info"); !ok {
		t.Error("missing build_info")
	}
	if v, ok := find(samples, "dualspace_uptime_seconds"); !ok || v < 0 {
		t.Errorf("uptime_seconds = %v, %v", v, ok)
	}
	if v, ok := find(samples, "dualspace_decide_duration_seconds_count", `engine="portfolio"`); !ok || v < 1 {
		t.Errorf("decide_duration_seconds_count{portfolio} = %v, %v", v, ok)
	}
	if _, ok := find(samples, "dualspace_decide_stage_duration_seconds_bucket",
		`engine="portfolio"`, `stage="walk"`, `le="+Inf"`); !ok {
		t.Error("missing decide_stage_duration_seconds{portfolio,walk}")
	}
	if _, ok := find(samples, "dualspace_memo_hits_total"); !ok {
		t.Error("missing memo_hits_total")
	}
	if _, ok := find(samples, "dualspace_batch_items_total"); !ok {
		t.Error("missing batch_items_total")
	}
}

// traceOf re-decodes the "trace" block of a decide response.
func traceOf(t *testing.T, out map[string]any) map[string]float64 {
	t.Helper()
	raw, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("missing trace block: %v", out)
	}
	tr := make(map[string]float64, len(raw))
	for k, v := range raw {
		f, ok := v.(float64)
		if !ok {
			t.Fatalf("trace field %s = %v (%T)", k, v, v)
		}
		tr[k] = f
	}
	return tr
}

func TestDecideTraceStages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Pin the serial core engine: it runs on the session's pinned decider,
	// so the engine stages (precheck, index sync, walk) are all recorded.
	// (The portfolio would hand an instance this small to FK, which decides
	// statelessly and reports only the handler stages.)
	code, out := post(t, ts.URL+"/v1/decide?trace=1", map[string]any{"g": gDual, "h": hDual, "engine": "core"})
	if code != 200 || out["dual"] != true {
		t.Fatalf("decide: code=%d out=%v", code, out)
	}
	tr := traceOf(t, out)
	if tr["wall_ns"] <= 0 {
		t.Fatalf("wall_ns = %v", tr["wall_ns"])
	}
	var sum float64
	for k, v := range tr {
		if v < 0 {
			t.Errorf("trace stage %s = %v < 0", k, v)
		}
		if k != "wall_ns" && k != "walk_steals_ns" {
			sum += v
		}
	}
	if sum > tr["wall_ns"] {
		t.Errorf("stage sum %v exceeds wall_ns %v: %v", sum, tr["wall_ns"], tr)
	}
	if tr["walk_ns"] <= 0 {
		t.Errorf("computed decision has walk_ns = %v", tr["walk_ns"])
	}

	// A cache hit reports only the stages it ran.
	code, out = post(t, ts.URL+"/v1/decide?trace=1", map[string]any{"g": gDual, "h": hDual, "engine": "core"})
	if code != 200 || out["cached"] != true {
		t.Fatalf("repeat decide: code=%d out=%v", code, out)
	}
	tr = traceOf(t, out)
	if tr["walk_ns"] != 0 {
		t.Errorf("cached response has walk_ns = %v", tr["walk_ns"])
	}
	if tr["parse_ns"] <= 0 || tr["cache_lookup_ns"] <= 0 {
		t.Errorf("cached response missing handler stages: %v", tr)
	}

	// Without ?trace=1 the block is absent.
	if _, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual}); out["trace"] != nil {
		t.Errorf("untraced response has trace block: %v", out["trace"])
	}
}

// TestDefaultDecideStaysSerial guards the default engine choice on a
// multi-core host: a /v1/decide with no engine field, on an instance large
// enough that the portfolio once sent it to the work-stealing search, must
// run on the worker session's serial walker. The process-wide spawn and
// steal counters must not move, and the trace must show walk time but no
// steal re-synchronization.
func TestDefaultDecideStaysSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	_, ts := newTestServer(t, Config{})
	var g strings.Builder
	if err := hgio.WriteHypergraph(&g, gen.Majority(9), nil); err != nil {
		t.Fatal(err)
	}
	before, _ := scrapeMetrics(t, ts.URL)
	code, out := post(t, ts.URL+"/v1/decide?trace=1", map[string]any{"g": g.String(), "h": g.String()})
	if code != 200 || out["dual"] != true || out["engine"] != "portfolio" {
		t.Fatalf("decide majority-9: code=%d out=%v", code, out)
	}
	after, _ := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"dualspace_walk_spawns_total", "dualspace_walk_steals_total"} {
		b, okB := find(before, name)
		a, okA := find(after, name)
		if !okB || !okA {
			t.Fatalf("%s missing from /metricsz", name)
		}
		if a != b {
			t.Errorf("%s moved from %v to %v on a default decision", name, b, a)
		}
	}
	tr := traceOf(t, out)
	if tr["walk_ns"] <= 0 {
		t.Errorf("default decision recorded no serial walk time: %v", tr)
	}
	if tr["walk_steals_ns"] != 0 {
		t.Errorf("default decision recorded walk_steals_ns = %v, want 0", tr["walk_steals_ns"])
	}
}

func TestStatszMetricszAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	}
	stats := getJSON(t, ts.URL+"/statsz")
	samples, _ := scrapeMetrics(t, ts.URL)

	reqs := stats["requests"].(map[string]any)
	if v, _ := find(samples, "dualspace_http_requests_total", `endpoint="decide"`); v != reqs["decide"].(float64) {
		t.Errorf("decide requests: metricsz=%v statsz=%v", v, reqs["decide"])
	}
	cache := stats["cache"].(map[string]any)
	if v, _ := find(samples, "dualspace_cache_hits_total"); v != cache["hits"].(float64) {
		t.Errorf("cache hits: metricsz=%v statsz=%v", v, cache["hits"])
	}
	if v, _ := find(samples, "dualspace_cache_misses_total"); v != cache["misses"].(float64) {
		t.Errorf("cache misses: metricsz=%v statsz=%v", v, cache["misses"])
	}
	if v, _ := find(samples, "dualspace_decompositions_total"); v != stats["decompositions"].(float64) {
		t.Errorf("decompositions: metricsz=%v statsz=%v", v, stats["decompositions"])
	}
	engines := stats["engines"].(map[string]any)
	pf := engines["portfolio"].(map[string]any)
	if v, _ := find(samples, "dualspace_decisions_total", `engine="portfolio"`); v != pf["decisions"].(float64) {
		t.Errorf("portfolio decisions: metricsz=%v statsz=%v", v, pf["decisions"])
	}
}

func TestHealthzBuildMetadata(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hz := getJSON(t, ts.URL+"/healthz")
	if hz["ok"] != true {
		t.Fatalf("healthz ok = %v", hz["ok"])
	}
	if v, ok := hz["go_version"].(string); !ok || !strings.HasPrefix(v, "go") {
		t.Errorf("go_version = %v", hz["go_version"])
	}
	if v, ok := hz["git_revision"].(string); !ok || v == "" {
		t.Errorf("git_revision = %v", hz["git_revision"])
	}
	if _, ok := hz["uptime_seconds"].(float64); !ok {
		t.Errorf("uptime_seconds = %v", hz["uptime_seconds"])
	}
	stats := getJSON(t, ts.URL+"/statsz")
	if stats["go_version"] != hz["go_version"] || stats["git_revision"] != hz["git_revision"] {
		t.Errorf("statsz build metadata disagrees with healthz: %v vs %v", stats, hz)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	if code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual}); code != 200 || out["dual"] != false {
		t.Fatalf("decide: code=%d out=%v", code, out)
	}
	var rec map[string]any
	dec := json.NewDecoder(&buf)
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("no access-log record: %v (buf=%q)", err, buf.String())
	}
	want := map[string]any{
		"msg":      "request",
		"method":   "POST",
		"path":     "/v1/decide",
		"endpoint": "decide",
		"engine":   "portfolio",
		"outcome":  "computed",
		"verdict":  "nondual",
		"status":   float64(200),
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("access log %s = %v, want %v (record %v)", k, rec[k], v, rec)
		}
	}
	if rec["fg"] == nil || rec["fh"] == nil || rec["latency"] == nil || rec["bytes"] == nil {
		t.Errorf("access log missing fields: %v", rec)
	}
}
