package satbd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
	"satbelim/internal/report"
	"satbelim/internal/vm"
)

// LoadConfig drives RunLoad, the daemon's load/chaos client: it hammers
// a running satbd with generated programs and validates every response
// against the schema and the degradation contract. It is the "never
// silently wrong" check: a response may be slow, shed, degraded, or an
// error — but it must say so, and anything it does return must be
// correct.
type LoadConfig struct {
	// BaseURL of the daemon, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// Programs is the number of requests to send; Concurrency how many
	// in flight at once.
	Programs    int
	Concurrency int
	// Seed is the base progen seed. Programs repeat (each distinct
	// program is requested about twice) so the cache and singleflight
	// paths are exercised, not just cold compiles.
	Seed int64
	// DeadlineMS is the per-request deadline sent to the daemon
	// (0 = server default).
	DeadlineMS int64
	// Gen configures the program generator (zero = progen defaults).
	Gen progen.Config
	// VerifyOutputs re-executes each successful /run response locally
	// and compares outputs — the strongest silently-wrong detector.
	VerifyOutputs bool
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

const maxInvalidRecorded = 20

// RunLoad executes one load run and returns its outcome; err is non-nil
// only for setup-level failures (the report carries per-response
// violations in Invalid).
func RunLoad(ctx context.Context, cfg LoadConfig) (*report.SatbdLoad, error) {
	if cfg.Programs <= 0 {
		cfg.Programs = 200
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Gen.Classes == 0 {
		cfg.Gen = progen.DefaultConfig()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	unique := cfg.Programs / 2
	if unique < 1 {
		unique = 1
	}
	endpoints := []string{"compile", "run", "analyze"}

	out := &report.SatbdLoad{
		Programs:    cfg.Programs,
		Concurrency: cfg.Concurrency,
		Seed:        cfg.Seed,
		ByOutcome:   map[string]int{},
		ByStatus:    map[string]int{},
	}
	var (
		mu       sync.Mutex
		sent     atomic.Int64
		verified atomic.Int64
		samples  = map[string][]time.Duration{}
		local    = pipeline.NewCache(0) // baseline builds for output verification
	)
	record := func(outcome, status string, d time.Duration, problems []string) {
		mu.Lock()
		defer mu.Unlock()
		out.ByOutcome[outcome]++
		out.ByStatus[status]++
		samples[outcome] = append(samples[outcome], d)
		for _, p := range problems {
			if len(out.Invalid) < maxInvalidRecorded {
				out.Invalid = append(out.Invalid, p)
			}
		}
	}

	t0 := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				seed := cfg.Seed + int64(i%unique)
				src := progen.Generate(seed, cfg.Gen)
				endpoint := endpoints[i%len(endpoints)]
				name := fmt.Sprintf("load%d", seed)
				r0 := time.Now()
				outcome, status, problems := doRequest(ctx, client, cfg, local, endpoint, name, src)
				d := time.Since(r0)
				sent.Add(1)
				if outcome == OutcomeOK && endpoint == "run" && cfg.VerifyOutputs && len(problems) == 0 {
					verified.Add(1)
				}
				record(outcome, status, d, problems)
			}
		}()
	}
	for i := 0; i < cfg.Programs; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			i = cfg.Programs
		}
	}
	close(jobs)
	wg.Wait()

	out.Sent = int(sent.Load())
	out.OutputsVerified = int(verified.Load())
	out.ElapsedNS = time.Since(t0).Nanoseconds()
	out.Latency = latencyStats(samples)

	// The daemon must still be healthy after the storm.
	if problems := checkHealthz(ctx, client, cfg.BaseURL); len(problems) > 0 {
		mu.Lock()
		out.Invalid = append(out.Invalid, problems...)
		mu.Unlock()
	}
	return out, ctx.Err()
}

// latencyStats condenses per-outcome wall-clock samples into
// nearest-rank percentile summaries. Latency includes client-side
// serialization and transport, which is what a caller of the daemon
// actually experiences.
func latencyStats(samples map[string][]time.Duration) map[string]report.SatbdLatency {
	var out map[string]report.SatbdLatency
	for outcome, ds := range samples {
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		rank := func(p float64) int64 {
			i := int(math.Ceil(p*float64(len(ds)))) - 1
			if i < 0 {
				i = 0
			}
			return ds[i].Nanoseconds()
		}
		if out == nil {
			out = map[string]report.SatbdLatency{}
		}
		out[outcome] = report.SatbdLatency{
			Count: len(ds),
			P50NS: rank(0.50),
			P95NS: rank(0.95),
			P99NS: rank(0.99),
			MaxNS: ds[len(ds)-1].Nanoseconds(),
		}
	}
	return out
}

// doRequest sends one request and validates the response. The returned
// problems list is empty for a contract-conforming response.
func doRequest(ctx context.Context, client *http.Client, cfg LoadConfig, local *pipeline.Cache, endpoint, name, src string) (outcome, status string, problems []string) {
	body, _ := json.Marshal(Request{Name: name, Source: src, DeadlineMS: cfg.DeadlineMS})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/"+endpoint, bytes.NewReader(body))
	if err != nil {
		return "unsent", "0", []string{fmt.Sprintf("%s %s: %v", endpoint, name, err)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		// Transport-level failure: the daemon may have crashed — that
		// IS a violation (connection refused), unless our own ctx ended.
		if ctx.Err() != nil {
			return "cancelled", "0", nil
		}
		return "transport", "0", []string{fmt.Sprintf("%s %s: transport: %v", endpoint, name, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		return "transport", strconv.Itoa(resp.StatusCode), []string{fmt.Sprintf("%s %s: body: %v", endpoint, name, err)}
	}

	status = strconv.Itoa(resp.StatusCode)
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s %s [%s]: ", endpoint, name, status)+fmt.Sprintf(format, args...))
	}

	var doc report.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		bad("response is not a Document: %v", err)
		return "invalid", status, problems
	}
	if doc.SchemaVersion != report.SchemaVersion || doc.Tool != "satbd" {
		bad("schemaVersion/tool = %d/%q, want %d/satbd", doc.SchemaVersion, doc.Tool, report.SchemaVersion)
	}
	if doc.Satbd == nil || doc.Satbd.Request == nil {
		bad("response has no satbd.request envelope")
		return "invalid", status, problems
	}
	sr := doc.Satbd.Request
	outcome = sr.Outcome

	wantStatus := map[string]int{
		OutcomeOK: 200, OutcomeDegraded: 200, OutcomeError: 400,
		OutcomeShed: 429, OutcomeTimeout: 504, OutcomePanic: 500,
	}
	want, known := wantStatus[outcome]
	if !known {
		bad("unknown outcome %q", outcome)
		return "invalid", status, problems
	}
	if resp.StatusCode != want {
		bad("status %d inconsistent with outcome %q (want %d)", resp.StatusCode, outcome, want)
	}
	switch outcome {
	case OutcomeShed:
		if resp.Header.Get("Retry-After") == "" {
			bad("shed response lacks Retry-After")
		}
	case OutcomeDegraded:
		// The degradation contract: a degraded response must say which
		// methods fell back. Silent degradation is the one unforgivable
		// failure mode.
		if doc.Compile == nil || len(doc.Compile.Degraded) == 0 {
			bad("outcome degraded but compile.degraded is empty")
		}
		fallthrough
	case OutcomeOK:
		if doc.Compile == nil {
			bad("successful response lacks compile section")
		}
		if endpoint == "run" && doc.Run == nil {
			bad("successful /run lacks run section")
		}
		if endpoint == "analyze" && len(doc.Methods) == 0 {
			bad("successful /analyze lacks methods section")
		}
		if endpoint == "run" && cfg.VerifyOutputs && doc.Run != nil {
			problems = append(problems, verifyOutput(local, name, src, &doc)...)
		}
	case OutcomeError, OutcomeTimeout, OutcomePanic:
		if sr.Error == "" {
			bad("outcome %q without an error message", outcome)
		}
	}
	return outcome, status, problems
}

// verifyOutput recompiles and reruns the program locally (full budgets,
// no faults, same runtime defaults as the daemon) and compares outputs.
// Analysis degradation can never change program output — elision is an
// optimization — so a mismatch means the daemon returned a wrong
// result.
func verifyOutput(local *pipeline.Cache, name, src string, doc *report.Document) []string {
	b, err := pipeline.Compile(name, src, pipeline.Options{
		InlineLimit: 100, // the daemon's default InlineLimit
		Analysis:    core.Options{Mode: core.ModeFieldArray},
		Cache:       local,
	})
	if err != nil {
		return []string{fmt.Sprintf("%s: local baseline compile failed: %v", name, err)}
	}
	res, err := vm.New(b.Program, vm.Config{}).Run()
	if err != nil {
		return []string{fmt.Sprintf("%s: local baseline run failed: %v", name, err)}
	}
	if !reflect.DeepEqual(res.Output, doc.Run.Output) || res.Steps != doc.Run.Steps {
		return []string{fmt.Sprintf("%s: SILENTLY WRONG: daemon output %v (%d steps) vs local %v (%d steps)",
			name, doc.Run.Output, doc.Run.Steps, res.Output, res.Steps)}
	}
	return nil
}

// checkHealthz validates the daemon's health endpoint after a run.
func checkHealthz(ctx context.Context, client *http.Client, baseURL string) []string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return []string{fmt.Sprintf("healthz: %v", err)}
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return []string{fmt.Sprintf("healthz: daemon unreachable after load: %v", err)}
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var doc report.Document
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &doc) != nil || doc.Satbd == nil || doc.Satbd.Stats == nil {
		return []string{fmt.Sprintf("healthz: status %d, body %.120s", resp.StatusCode, data)}
	}
	return nil
}
