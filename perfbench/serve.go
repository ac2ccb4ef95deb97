package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
	"satbelim/internal/report"
	"satbelim/internal/satbd"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// daemon is an in-process satbd served over loopback HTTP.
type daemon struct {
	srv    *satbd.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	d := &daemon{
		srv:  satbd.New(satbd.Config{Workers: workers}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers, DisableCompression: true},
		},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop closes the daemon and waits until its server goroutine returned.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.hs.Shutdown(ctx) != nil {
		d.hs.Close()
	}
	<-d.done
	d.client.CloseIdleConnections()
}

// request is the /run or /analyze request of an input: the run-hot
// VM configuration, everything else the daemon's defaults.
func request(name, src string) satbd.Request {
	return satbd.Request{Name: name, Source: src, Engine: "compiled", Barrier: "conditional", GC: "satb", GCTrigger: 200}
}

// post makes one round trip inside a span and returns the status, the
// body and the client-side latency.
func (d *daemon) post(tr *tracer, op, parent int, endpoint string, req satbd.Request) (int, []byte, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, err
	}
	sp := tr.begin("satbd.request", op, parent)
	defer tr.end(sp)
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// wantStatus is the daemon's outcome↔status contract.
var wantStatus = map[string]int{
	satbd.OutcomeOK: 200, satbd.OutcomeDegraded: 200, satbd.OutcomeError: 400,
	satbd.OutcomeShed: 429, satbd.OutcomeTimeout: 504, satbd.OutcomePanic: 500,
}

// checkResponse validates a response against the Document schema, the
// outcome↔status contract and the input's reference. Any outcome but ok
// is a failed op.
func checkResponse(endpoint string, status int, body []byte, ref *reference) (*report.Document, string) {
	var doc report.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Sprintf("status %d, body is not a Document: %v", status, err)
	}
	if doc.SchemaVersion != report.SchemaVersion || doc.Tool != "satbd" || doc.Satbd == nil || doc.Satbd.Request == nil {
		return nil, fmt.Sprintf("not a satbd v%d Document with a request envelope", report.SchemaVersion)
	}
	sr := doc.Satbd.Request
	if want, ok := wantStatus[sr.Outcome]; !ok || want != status {
		return &doc, fmt.Sprintf("outcome %q with status %d breaks the contract", sr.Outcome, status)
	}
	if sr.Outcome != satbd.OutcomeOK {
		return &doc, fmt.Sprintf("outcome %s: %s", sr.Outcome, sr.Error)
	}
	c := doc.Compile
	if c == nil || len(c.Degraded) > 0 {
		return &doc, "missing compile section or degraded methods"
	}
	if c.FieldSites != ref.fieldSites || c.ArraySites != ref.arraySites {
		return &doc, fmt.Sprintf("sites %d field/%d array, reference %d/%d", c.FieldSites, c.ArraySites, ref.fieldSites, ref.arraySites)
	}
	switch endpoint {
	case "run":
		if doc.Run == nil {
			return &doc, "missing run section"
		}
		if msg := checkRun(statsOfSummary(doc.Run), ref); msg != "" {
			return &doc, msg
		}
	case "analyze":
		if len(doc.Methods) != ref.methods {
			return &doc, fmt.Sprintf("%d methods, reference %d", len(doc.Methods), ref.methods)
		}
	}
	return &doc, ""
}

func statsOfSummary(r *report.RunSummary) runStats {
	return runStats{
		output: r.Output, steps: r.Steps,
		tierUps: int64(r.TierUps), tierDeopts: r.TierDeopts, tierSegExecs: r.TierSegExecs, oracleChecks: r.ElisionChecks,
		barrierExecs: r.BarrierExecs, elidedExecs: r.ElidedExecs,
		logged: r.Logged, shaded: r.Shaded, cards: r.CardsDirtied, cost: r.BarrierCost,
		cycles: int64(r.Cycles), finalPause: int64(r.FinalPauseWork), allocated: r.Allocated, swept: int64(r.Swept),
	}
}

// addSatbdLayers adds one round trip to the satbd layer: time queued for
// a worker slot and in the server, the transport share of the client's
// latency, and the admission decision.
func addSatbdLayers(l *ledger, doc *report.Document, dur time.Duration) {
	if doc == nil {
		return
	}
	sr := doc.Satbd.Request
	l.add("satbd.queue_wait_ms", float64(sr.QueueWaitNS)/1e6)
	l.add("satbd.server_ms", float64(sr.ElapsedNS)/1e6)
	l.add("satbd.transport_ms", ms(dur)-float64(sr.ElapsedNS)/1e6)
	l.addRatio("satbd.tier0_ratio", float64(b2byte(sr.Tier == 0)), 1)
	l.sum("satbd.shed", float64(b2byte(sr.Outcome == satbd.OutcomeShed)))
}

// serveCorpus is the number of distinct generated programs serve-mixed
// sends per pass over its request stream; table1Every is how often a
// Table-1 /run joins the stream.
const (
	serveCorpus = 512
	table1Every = 16
)

// serveReq is one entry of the request stream.
type serveReq struct {
	in       *input
	endpoint string
	renamed  bool // a corpus program: renamed on every pass
}

// serveWorkload is serve-mixed: a closed loop of one client per CPU
// against an in-process satbd with one worker per CPU, each client
// waiting for its reply before sending the next request. The stream
// requests every corpus program twice per pass, /run or /analyze at
// random, half of the second requests right behind the first (so they
// can coalesce) and half up to 32 requests later (so they can hit the
// cache), and mixes in a Table-1 /run every 16 requests. Corpus programs
// get a fresh name on every pass, so each pass compiles them anew.
type serveWorkload struct {
	ins    []*input
	stream []serveReq
	d      *daemon
	last   pipeline.CacheStats
}

func (w *serveWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.ins = nil
	for i := 0; i < serveCorpus; i++ {
		s := rng.Int63()
		w.ins = append(w.ins, &input{name: fmt.Sprintf("serve%d", s), src: progen.Generate(s, progen.CampaignConfig())})
	}
	var table1 []*input
	for _, wl := range workloads.All() {
		table1 = append(table1, &input{name: wl.Name, src: wl.Source})
	}
	w.ins = append(w.ins, table1...)
	if err := addReferences(w.ins); err != nil {
		return err
	}

	endpoint := func() string { return []string{"run", "analyze"}[rng.Intn(2)] }
	type keyed struct {
		key float64
		r   serveReq
	}
	var items []keyed
	for rank, k := range rng.Perm(serveCorpus) {
		in := w.ins[k]
		gap := 0.5
		if rng.Intn(2) == 0 {
			gap = float64(1 + rng.Intn(32))
		}
		items = append(items, keyed{float64(rank), serveReq{in, endpoint(), true}}, keyed{float64(rank) + gap, serveReq{in, endpoint(), true}})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].key < items[j].key })
	w.stream = w.stream[:0]
	t1 := rng.Perm(len(table1))
	for i, it := range items {
		if k := i / (table1Every - 1); i%(table1Every-1) == 0 {
			w.stream = append(w.stream, serveReq{table1[t1[k%len(t1)]], "run", false})
		}
		w.stream = append(w.stream, it.r)
	}
	var err error
	w.d, err = startDaemon()
	return err
}

// warm compiles the Table-1 programs into the daemon's cache, as a
// daemon that has been serving a while would have them.
func (w *serveWorkload) warm() {
	for _, in := range w.ins[serveCorpus:] {
		w.d.post(nil, 0, -1, "run", request(in.name, in.src))
	}
	w.last = w.d.srv.Cache().Stats()
}

func (w *serveWorkload) clients() int { return workers }
func (w *serveWorkload) round() int   { return 1 }

// serveTail is serve-mixed's tail percentile: a window holds thousands
// of requests, so p99 has dozens beyond it.
const serveTail = 0.99

func (w *serveWorkload) op(tr *tracer, i int) *opRec {
	e := w.stream[i%len(w.stream)]
	name := e.in.name
	if e.renamed {
		name = fmt.Sprintf("%s_p%d", name, i/len(w.stream))
	}
	r := &opRec{i: i, in: e.in, kind: e.endpoint}
	var err error
	r.dur = timeOp(tr, i, func(root int) {
		r.status, r.body, _, err = w.d.post(tr, i, root, e.endpoint, request(name, e.in.src))
	})
	if err != nil {
		r.fail = "transport: " + err.Error()
	}
	return r
}

// check validates every response. minstr_per_s is the instructions of
// all /run responses per second of the window; the elimination shares
// pool the successful responses.
func (w *serveWorkload) check(recs []*opRec, wall time.Duration, ph *phase) tally {
	var steps int64
	var execs, elidedExecs uint64
	var sites, elided int
	for _, r := range recs {
		if r.fail != "" {
			continue
		}
		doc, msg := checkResponse(r.kind, r.status, r.body, r.in.ref)
		r.body = nil
		addSatbdLayers(ph.win, doc, r.dur)
		if r.fail = msg; msg != "" {
			continue
		}
		sites += doc.Compile.FieldSites + doc.Compile.ArraySites
		elided += doc.Compile.FieldElided + doc.Compile.ArrayElided + doc.Compile.NullOrSame
		if r.kind == "run" {
			st := statsOfSummary(doc.Run)
			steps += st.steps
			execs += st.barrierExecs
			elidedExecs += st.elidedExecs
			addRunLayers(ph.win, st)
		}
	}
	cs := w.d.srv.Cache().Stats()
	hits, misses, coal := cs.Hits-w.last.Hits, cs.Misses-w.last.Misses, cs.Coalesced-w.last.Coalesced
	ph.win.addRatio("pipeline.cache_hit_ratio", float64(hits), float64(hits+misses+coal))
	ph.win.sum("pipeline.cache_coalesced", float64(coal))
	w.last = cs
	t := tally{
		minstr:     float64(steps) / wall.Seconds() / 1e6,
		elimDyn:    pct(float64(elidedExecs), float64(execs)),
		elimStatic: pct(float64(elided), float64(sites)),
	}
	t.overall(recs, serveTail)
	return t
}

func (w *serveWorkload) sweep() ([]*input, vm.Config) {
	return w.ins[:sweepInputs], runConfig(false)
}

func (w *serveWorkload) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}
