package main

// The load generator: closed-loop clients replaying one fixed pass of
// requests, checking every answer.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request of a pass with the check its answer must pass.
type op struct {
	path    string // "/v1/decide", "/v1/batch" or "/v1/mine"
	replica int
	body    []byte
	check   func(resp []byte) (*traceBlock, error)
}

// traceBlock is the ?trace=1 block of a /v1/decide answer (nanoseconds).
type traceBlock struct {
	WallNs         int64 `json:"wall_ns"`
	ParseNs        int64 `json:"parse_ns"`
	CanonicalizeNs int64 `json:"canonicalize_ns"`
	CacheLookupNs  int64 `json:"cache_lookup_ns"`
	PrecheckNs     int64 `json:"precheck_ns"`
	IndexSyncNs    int64 `json:"index_sync_ns"`
	WalkNs         int64 `json:"walk_ns"`
	MemoNs         int64 `json:"memo_ns"`
}

func (t *traceBlock) stages() []stageSpan {
	return []stageSpan{
		{"service.parse", t.ParseNs},
		{"hypergraph.canonicalize", t.CanonicalizeNs},
		{"batch.cache_lookup", t.CacheLookupNs},
		{"core.precheck", t.PrecheckNs},
		{"core.index_sync", t.IndexSyncNs},
		{"core.walk", t.WalkNs},
		{"core.memo", t.MemoNs},
	}
}

type stageSpan struct {
	name string
	ns   int64
}

// tracedCall is one traced decide: client round trip plus server trace.
type tracedCall struct {
	rtt   time.Duration
	trace traceBlock
}

// loadgen replays passes against one server set.
type loadgen struct {
	hc      *http.Client
	c       *serverSet
	clients int

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string // first few failures, for stderr

	epoch time.Time // span clock origin
	spans *spanLog  // non-nil in traced passes: decides ask for ?trace=1
}

func (d *loadgen) fail(err error) {
	d.failed.Add(1)
	d.errMu.Lock()
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err.Error())
	}
	d.errMu.Unlock()
}

// passResult is what one pass measured.
type passResult struct {
	wall   time.Duration
	ops    int
	lat    []time.Duration // indexed like the pass's ops
	traced []tracedCall
}

// runPass replays ops once with d.clients closed-loop clients sharing one
// cursor, so every op of the pass runs exactly once.
func (d *loadgen) runPass(ops []op) passResult {
	var next atomic.Int64
	lat := make([]time.Duration, len(ops))
	traced := make([][]tracedCall, d.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				rtt, tc := d.do(ops[i])
				lat[i] = rtt
				if tc != nil {
					traced[c] = append(traced[c], *tc)
				}
			}
		}(c)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start), ops: len(ops), lat: lat}
	for c := range traced {
		res.traced = append(res.traced, traced[c]...)
	}
	return res
}

// do sends one op, checks the answer and returns the client round trip.
func (d *loadgen) do(o op) (time.Duration, *tracedCall) {
	d.attempted.Add(1)
	url := "http://" + d.c.replicas[o.replica].addr + o.path
	if d.spans != nil && o.path == "/v1/decide" {
		url += "?trace=1"
	}
	ctype := "application/json"
	if o.path == "/v1/batch" {
		ctype = "application/x-ndjson"
	}
	t0 := time.Now()
	resp, err := d.hc.Post(url, ctype, bytes.NewReader(o.body))
	if err != nil {
		d.fail(err)
		return time.Since(t0), nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		d.fail(err)
		return rtt, nil
	}
	if resp.StatusCode != http.StatusOK {
		d.fail(fmt.Errorf("%s: status %d: %s", o.path, resp.StatusCode, bytes.TrimSpace(body)))
		return rtt, nil
	}
	tb, err := o.check(body)
	if err != nil {
		d.fail(fmt.Errorf("%s: %w", o.path, err))
		return rtt, nil
	}
	if d.spans != nil {
		d.spans.request(o.path, t0.Sub(d.epoch), rtt, tb)
	}
	if tb == nil {
		return rtt, nil
	}
	return rtt, &tracedCall{rtt: rtt, trace: *tb}
}

// edgeSets is an instance's hypergraphs as name sets, for witness checks.
type edgeSets struct {
	g, h [][]string
}

func parseEdges(text string) [][]string {
	var out [][]string
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// verdict is the part of a decide answer (or batch row) that is checked.
type verdict struct {
	Dual      bool        `json:"dual"`
	Reason    string      `json:"reason"`
	Witness   []string    `json:"witness"`
	CoWitness []string    `json:"cowitness"`
	Trace     *traceBlock `json:"trace"`
	// batch rows only
	Index *int   `json:"index"`
	Error string `json:"error"`
	Done  bool   `json:"done"`
	Items int    `json:"items"`
	Errs  int    `json:"errors"`
}

const reasonNewTransversal = "new transversal exists"

// checkVerdict compares a verdict with the ground truth and re-checks a
// new-transversal witness by set algebra: it must meet every edge of g,
// contain no edge of h, and its cowitness must be its complement in the
// request's vertex set.
func checkVerdict(v *verdict, dual bool, es *edgeSets) error {
	if v.Dual != dual {
		return fmt.Errorf("wrong verdict: dual=%v, want %v (reason %q)", v.Dual, dual, v.Reason)
	}
	if v.Dual != (v.Reason == "dual") {
		return fmt.Errorf("reason %q contradicts dual=%v", v.Reason, v.Dual)
	}
	if v.Reason != reasonNewTransversal {
		return nil
	}
	w := make(map[string]bool, len(v.Witness))
	for _, x := range v.Witness {
		w[x] = true
	}
	universe := map[string]bool{}
	for _, e := range es.g {
		hit := false
		for _, x := range e {
			universe[x] = true
			hit = hit || w[x]
		}
		if !hit {
			return fmt.Errorf("witness %v misses g-edge %v", v.Witness, e)
		}
	}
	for _, e := range es.h {
		inside := true
		for _, x := range e {
			universe[x] = true
			inside = inside && w[x]
		}
		if inside {
			return fmt.Errorf("witness %v contains h-edge %v", v.Witness, e)
		}
	}
	for x := range w {
		if !universe[x] {
			return fmt.Errorf("witness names unknown vertex %q", x)
		}
	}
	if len(v.CoWitness)+len(w) != len(universe) {
		return fmt.Errorf("cowitness %v is not the witness complement", v.CoWitness)
	}
	for _, x := range v.CoWitness {
		if w[x] || !universe[x] {
			return fmt.Errorf("cowitness %v is not the witness complement", v.CoWitness)
		}
	}
	return nil
}

func decideOp(in instance, replica int) op {
	es := &edgeSets{parseEdges(in.g), parseEdges(in.h)}
	return op{
		path: "/v1/decide", replica: replica, body: decideBody(in),
		check: func(resp []byte) (*traceBlock, error) {
			var v verdict
			if err := json.Unmarshal(resp, &v); err != nil {
				return nil, err
			}
			return v.Trace, checkVerdict(&v, in.dual, es)
		},
	}
}

// batchRequest builds a /v1/batch op whose check demands exactly one
// correct verdict row per input row and a clean terminal record.
func batchRequest(b batchOp) op {
	var body bytes.Buffer
	sets := make([]*edgeSets, len(b.rows))
	for i, in := range b.rows {
		body.Write(decideBody(in))
		body.WriteByte('\n')
		sets[i] = &edgeSets{parseEdges(in.g), parseEdges(in.h)}
	}
	return op{
		path: "/v1/batch", replica: b.replica, body: body.Bytes(),
		check: func(resp []byte) (*traceBlock, error) {
			seen := make([]bool, len(b.rows))
			answered, done := 0, false
			sc := bufio.NewScanner(bytes.NewReader(resp))
			sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
			for sc.Scan() {
				var v verdict
				if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
					return nil, err
				}
				switch {
				case v.Done:
					if v.Items != len(b.rows) || v.Errs != 0 || v.Error != "" {
						return nil, fmt.Errorf("terminal record %s", sc.Bytes())
					}
					done = true
				case v.Error != "":
					return nil, fmt.Errorf("error row: %s", v.Error)
				case v.Index == nil || *v.Index < 0 || *v.Index >= len(b.rows) || seen[*v.Index]:
					return nil, fmt.Errorf("bad row index in %s", sc.Bytes())
				default:
					i := *v.Index
					seen[i] = true
					answered++
					if err := checkVerdict(&v, b.rows[i].dual, sets[i]); err != nil {
						return nil, fmt.Errorf("row %d: %w", i, err)
					}
				}
			}
			if err := sc.Err(); err != nil {
				return nil, err
			}
			if !done || answered != len(b.rows) {
				return nil, fmt.Errorf("%d of %d rows answered (terminal record: %v)", answered, len(b.rows), done)
			}
			return nil, nil
		},
	}
}

// mineRequest builds a /v1/mine op whose streamed borders must equal the
// BordersApriori ground truth exactly.
func mineRequest(mc *mineCase) op {
	return op{
		path: "/v1/mine", body: mineBody(mc),
		check: func(resp []byte) (*traceBlock, error) {
			var maxF, minI []string
			done := false
			sc := bufio.NewScanner(bytes.NewReader(resp))
			sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
			for sc.Scan() {
				var rec struct {
					MaxFrequent   *[]string `json:"max_frequent"`
					MinInfrequent *[]string `json:"min_infrequent"`
					Done          bool      `json:"done"`
					MaxCount      int       `json:"max_frequent_count"`
					MinCount      int       `json:"min_infrequent_count"`
					Error         string    `json:"error"`
				}
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					return nil, err
				}
				switch {
				case rec.Error != "":
					return nil, fmt.Errorf("mine error: %s", rec.Error)
				case rec.Done:
					if rec.MaxCount != len(mc.maxFrequent) || rec.MinCount != len(mc.minInfreq) {
						return nil, fmt.Errorf("border counts %d/%d, want %d/%d",
							rec.MaxCount, rec.MinCount, len(mc.maxFrequent), len(mc.minInfreq))
					}
					done = true
				case rec.MaxFrequent != nil:
					maxF = append(maxF, setKey(*rec.MaxFrequent))
				case rec.MinInfrequent != nil:
					minI = append(minI, setKey(*rec.MinInfrequent))
				}
			}
			if err := sc.Err(); err != nil {
				return nil, err
			}
			if !done {
				return nil, fmt.Errorf("stream ended without a terminal record")
			}
			sort.Strings(maxF)
			sort.Strings(minI)
			if !slices.Equal(maxF, mc.maxFrequent) || !slices.Equal(minI, mc.minInfreq) {
				return nil, fmt.Errorf("borders differ from BordersApriori")
			}
			return nil, nil
		},
	}
}
