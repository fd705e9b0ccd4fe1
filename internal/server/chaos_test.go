package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tooleval"
	"tooleval/internal/faults"
	"tooleval/internal/sim"
	"tooleval/internal/store"
)

// The TestChaos* tests are the server half of the seeded chaos suite
// (make chaos / the CI chaos job): store faults injected under live
// multi-tenant traffic, the circuit breaker's full open → half-open →
// closed cycle observed through /healthz and /statsz, SSE streams
// resumed from every possible position, and a drain executed while the
// circuit is open. The invariant throughout: faults change cost and
// durability, never report bytes.

func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	seed, pinned := faults.PickSeed("TOOLEVAL_CHAOS_SEED", testing.Short())
	if pinned {
		t.Logf("chaos seed %d (pinned)", seed)
	} else {
		t.Logf("chaos seed %d (rerun with TOOLEVAL_CHAOS_SEED=%d to reproduce)", seed, seed)
	}
	return seed
}

// armedInjector passes everything through until armed — the store must
// open cleanly (a faulted header write is a failed Open, the one path
// that is a real error by contract) before the chaos starts.
type armedInjector struct {
	inner faults.Injector
	armed atomic.Bool
}

func (a *armedInjector) Decide(op faults.Op, n int) faults.Decision {
	if !a.armed.Load() {
		return faults.Decision{}
	}
	return a.inner.Decide(op, n)
}

// attachFaultyStore opens the store in dir with inj interposed on the
// segment file and the breaker tuned for test-scale timing, and
// attaches it behind s's shared cache (see attachStore).
func attachFaultyStore(t *testing.T, s *Server, dir string, inj faults.Injector, threshold int, base, max time.Duration) *tooleval.ResultStore {
	t.Helper()
	return attachStore(t, s, dir,
		store.WithFile(func(f store.File) store.File { return faults.NewFile(f, inj) }),
		store.WithBreaker(threshold, base, max))
}

// idEvent is one SSE frame including its log id (0 when the frame
// carried no id line, e.g. the synthetic "gap" event).
type idEvent struct {
	id   int64
	name string
	data []byte
}

func readIDEvents(r io.Reader, fn func(idEvent) bool) error {
	sc := bufio.NewScanner(r)
	var ev idEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.name != "" && !fn(ev) {
				return nil
			}
			ev = idEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return sc.Err()
}

func collectIDEvents(t *testing.T, r io.Reader) []idEvent {
	t.Helper()
	var evs []idEvent
	if err := readIDEvents(r, func(ev idEvent) bool { evs = append(evs, ev); return true }); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return evs
}

// resumeEvents fetches GET /v1/jobs/{id}/events from a given position,
// alternating between the Last-Event-ID header and the ?after= query so
// both resume spellings stay exercised.
func resumeEvents(t *testing.T, base, tenant, jobID string, after int64, viaHeader bool) []idEvent {
	t.Helper()
	url := base + "/v1/jobs/" + jobID + "/events"
	if !viaHeader {
		url += "?after=" + strconv.FormatInt(after, 10)
	}
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	if viaHeader {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("resume after %d: status %d: %s", after, resp.StatusCode, body)
	}
	return collectIDEvents(t, resp.Body)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// jobIDFrom reads the job id from a submit response's Location header,
// which names the job whatever frames its stream later drops.
func jobIDFrom(t *testing.T, resp *http.Response) string {
	t.Helper()
	loc := resp.Header.Get("Location")
	id, ok := strings.CutPrefix(loc, "/v1/jobs/")
	if !ok || id == "" {
		t.Fatalf("Location = %q, want /v1/jobs/<id>", loc)
	}
	return id
}

// TestChaosReportParityUnderStoreFaults runs multi-tenant traffic over
// a store whose file randomly fails, tears, and refuses fsync on a
// seeded schedule. Every report — blocking and streamed — must be
// byte-identical to a fault-free local run, every stream must pair its
// spec_start/spec_done events exactly, and /healthz and /statsz must
// stay coherent throughout.
func TestChaosReportParityUnderStoreFaults(t *testing.T) {
	seed := chaosSeed(t)
	sched := faults.NewSchedule(seed, faults.Plan{
		WriteError: 0.35,
		ShortWrite: 0.35,
		SyncError:  0.10,
	})
	inj := &armedInjector{inner: sched}
	s, ts := newTestServer(t, Config{})
	attachFaultyStore(t, s, t.TempDir(), inj, 2, time.Millisecond, 10*time.Millisecond)
	inj.armed.Store(true)

	// Two distinct batches: the second's cells are fresh, so every job
	// of it drives new writes through the faulted file rather than
	// riding the shared cache.
	variantBatch := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "pvm", Sizes: []int{0, 16, 64, 256, 1024, 4096}},
		{Kind: tooleval.KindRing, Platform: "sun-atm-lan", Tool: "p4", Procs: 8, Sizes: []int{128}},
	}
	wantQuick := localReport(t, quickBatch)
	for _, batch := range [][]tooleval.ExperimentSpec{quickBatch, variantBatch} {
		want := wantQuick
		if len(batch) != len(quickBatch) {
			want = localReport(t, batch)
		}
		for i := 0; i < 3; i++ {
			tenant := fmt.Sprintf("chaos-%d", i)
			resp := postJob(t, ts.URL, tenant, batch)
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d err %v", tenant, resp.StatusCode, err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("%s: report under store faults differs from fault-free run", tenant)
			}
		}
	}

	// The streamed lifecycle holds its shape under faults too.
	resp := streamJob(t, ts.URL, "chaos-sse", quickBatch)
	evs := collectIDEvents(t, resp.Body)
	resp.Body.Close()
	starts, dones := 0, 0
	for _, ev := range evs {
		switch ev.name {
		case "spec_start":
			starts++
		case "spec_done":
			dones++
		}
	}
	if starts != len(quickBatch) || dones != len(quickBatch) {
		t.Fatalf("spec_start/spec_done = %d/%d, want %d/%d", starts, dones, len(quickBatch), len(quickBatch))
	}
	code, report := fetchReport(t, ts.URL, "chaos-sse", jobIDFrom(t, resp))
	if code != http.StatusOK || !bytes.Equal(report, wantQuick) {
		t.Fatalf("streamed job's report (status %d) differs from fault-free run", code)
	}

	if sched.Injected() == 0 {
		t.Fatal("schedule injected nothing: the fault seam is not wired")
	}
	var h healthWire
	getJSON(t, ts.URL+"/healthz", &h)
	switch h.StoreCircuit {
	case "closed", "open", "half-open":
	default:
		t.Fatalf("healthz store_circuit = %q", h.StoreCircuit)
	}
	var stats statszWire
	getJSON(t, ts.URL+"/statsz", &stats)
	if stats.Store == nil {
		t.Fatal("statsz has no store section")
	}
	t.Logf("injected %d faults; store: %d cells, circuit %s, %d trips, %d dropped",
		sched.Injected(), stats.Store.Cells, stats.Store.Circuit, stats.Store.Trips, stats.Store.Dropped)
}

// TestChaosCircuitOpensAndRecovers drives the breaker's whole arc
// through the HTTP surface: a healthy store persists, a latched disk
// fault trips the circuit (healthz degrades, statsz counts the trip),
// and once the disk recovers a probe re-closes the circuit and
// persistence resumes — no restart, no lost reports anywhere along the
// way.
func TestChaosCircuitOpensAndRecovers(t *testing.T) {
	sw := faults.NewSwitch()
	s, ts := newTestServer(t, Config{})
	st := attachFaultyStore(t, s, t.TempDir(), sw, 2, time.Millisecond, 8*time.Millisecond)

	resp := postJob(t, ts.URL, "drill", quickBatch)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy job: status %d", resp.StatusCode)
	}
	persisted := st.Len()
	if persisted == 0 {
		t.Fatal("healthy job persisted nothing")
	}

	// Disk goes bad: a batch of fresh cells fails enough consecutive
	// writes to trip the breaker. Results are unaffected.
	sw.Set(true)
	faulted := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "pvm", Sizes: []int{0, 64, 256, 1024}},
	}
	resp = postJob(t, ts.URL, "drill", faulted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted job: status %d", resp.StatusCode)
	}
	var h healthWire
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "degraded" || h.StoreCircuit == "closed" {
		t.Fatalf("with a latched disk fault: healthz = %+v, want degraded/non-closed", h)
	}
	var stats statszWire
	getJSON(t, ts.URL+"/statsz", &stats)
	if stats.Store == nil || stats.Store.Trips < 1 {
		t.Fatalf("statsz after trip: %+v, want trips >= 1", stats.Store)
	}
	if st.Len() != persisted {
		t.Fatalf("store grew to %d cells under a dead disk", st.Len())
	}

	// Disk recovers: fresh cells drive half-open probes until one
	// succeeds and the circuit re-closes.
	sw.Set(false)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		probe := []tooleval.ExperimentSpec{
			{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "pvm", Sizes: []int{2048 + i}},
		}
		resp := postJob(t, ts.URL, "drill", probe)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		getJSON(t, ts.URL+"/healthz", &h)
		if h.Status == "ok" && h.StoreCircuit == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit never re-closed after recovery: healthz = %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Len() <= persisted {
		t.Fatalf("store has %d cells after recovery, want > %d", st.Len(), persisted)
	}
}

// TestChaosSSEResumeEveryIndex completes a streamed job, then replays
// its feed from every possible Last-Event-ID. Each resume must return
// exactly the suffix after that id — same ids, same names, same bytes —
// with no gaps: a client can lose its connection at any frame and
// reconstruct the identical stream.
func TestChaosSSEResumeEveryIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := streamJob(t, ts.URL, "resume", quickBatch)
	full := collectIDEvents(t, resp.Body)
	resp.Body.Close()
	if len(full) < 3 {
		t.Fatalf("only %d events", len(full))
	}
	for i, ev := range full {
		if ev.id != int64(i+1) {
			t.Fatalf("live stream event %d has id %d, want %d", i, ev.id, i+1)
		}
	}
	if full[len(full)-1].name != "job_done" {
		t.Fatalf("stream ended on %q", full[len(full)-1].name)
	}
	jobID := jobIDFrom(t, resp)

	n := int64(len(full))
	for after := int64(0); after <= n; after++ {
		got := resumeEvents(t, ts.URL, "resume", jobID, after, after%2 == 1)
		want := full[after:]
		if len(got) != len(want) {
			t.Fatalf("resume after %d: %d events, want %d", after, len(got), len(want))
		}
		for i := range got {
			if got[i].id != want[i].id || got[i].name != want[i].name || !bytes.Equal(got[i].data, want[i].data) {
				t.Fatalf("resume after %d: event %d = (%d %q %s), want (%d %q %s)",
					after, i, got[i].id, got[i].name, got[i].data, want[i].id, want[i].name, want[i].data)
			}
		}
	}
	t.Logf("replayed %d-event stream from all %d positions", n, n+1)
}

// TestChaosLiveResumeMidSweep drops a streaming client mid-sweep and
// reconnects with Last-Event-ID while the sweep is still running: the
// resume window must keep the job alive through the disconnect, and the
// resumed stream must continue gap-free from the next id to a clean
// job_done.
func TestChaosLiveResumeMidSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ResumeWindow: 5 * time.Second,
		EventBuffer:  1 << 15,
	})
	slow := []tooleval.ExperimentSpec{{Kind: tooleval.KindEvaluate, Scale: 0.07}}
	resp := streamJob(t, ts.URL, "live", slow)
	var seen []idEvent
	if err := readIDEvents(resp.Body, func(ev idEvent) bool {
		seen = append(seen, ev)
		return len(seen) < 5 // hang up mid-sweep
	}); err != nil {
		t.Fatalf("reading first events: %v", err)
	}
	resp.Body.Close()
	if len(seen) < 5 || seen[len(seen)-1].name == "job_done" {
		t.Fatalf("job finished in %d events before the disconnect could matter", len(seen))
	}
	jobID := jobIDFrom(t, resp)
	last := seen[len(seen)-1].id

	rest := resumeEvents(t, ts.URL, "live", jobID, last, true)
	if len(rest) == 0 {
		t.Fatal("resumed stream was empty")
	}
	for i, ev := range rest {
		if ev.id != last+int64(i)+1 {
			t.Fatalf("resumed event %d has id %d, want %d (gap)", i, ev.id, last+int64(i)+1)
		}
	}
	final := rest[len(rest)-1]
	if final.name != "job_done" {
		t.Fatalf("resumed stream ended on %q", final.name)
	}
	var done jobStatusWire
	if err := json.Unmarshal(final.data, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != jobDone || done.Failed != 0 {
		t.Fatalf("resumed job finished %+v, want a clean %s", done, jobDone)
	}
}

// TestChaosGapPastEvictedBuffer resumes from before a tiny replay
// buffer's horizon: the stream must announce exactly how many events
// were lost with one "gap" frame, then replay the retained suffix.
func TestChaosGapPastEvictedBuffer(t *testing.T) {
	const buffer = 8
	_, ts := newTestServer(t, Config{EventBuffer: buffer})
	resp := streamJob(t, ts.URL, "gappy", quickBatch)
	full := collectIDEvents(t, resp.Body)
	resp.Body.Close()
	jobID := jobIDFrom(t, resp)
	// The live stream may itself have fallen past the buffer (its first
	// frame is then a gap), but it drains to job_done, so its last id
	// is the log's length.
	n := full[len(full)-1].id
	if n <= buffer {
		t.Fatalf("job emitted %d events, need > %d to evict", n, buffer)
	}

	got := resumeEvents(t, ts.URL, "gappy", jobID, 0, false)
	if got[0].name != "gap" {
		t.Fatalf("first resumed event is %q, want gap", got[0].name)
	}
	var gap gapWire
	if err := json.Unmarshal(got[0].data, &gap); err != nil {
		t.Fatal(err)
	}
	if gap.Missed != n-buffer {
		t.Fatalf("gap.missed = %d, want %d", gap.Missed, n-buffer)
	}
	tail := got[1:]
	if len(tail) != buffer {
		t.Fatalf("replayed %d retained events, want %d", len(tail), buffer)
	}
	for i, ev := range tail {
		if want := n - int64(buffer) + int64(i) + 1; ev.id != want {
			t.Fatalf("retained event %d has id %d, want %d", i, ev.id, want)
		}
	}
}

// TestChaosDrainWhileCircuitOpen opens the store's circuit with a disk
// fault, then drains the server with a sweep still in flight. The drain
// must finish inside the deadline and run the in-flight job to a clean
// job_done; closing the store afterwards syncs what it holds and
// reports the degraded store's latched error instead of swallowing it.
func TestChaosDrainWhileCircuitOpen(t *testing.T) {
	sw := faults.NewSwitch()
	dir := t.TempDir()
	drainTimeout := 45 * time.Second
	// A long probe backoff pins the circuit open across the drain.
	s, err := New(Config{DrainTimeout: drainTimeout, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds := attachFaultyStore(t, s, dir, sw, 2, time.Hour, time.Hour)
	base, drain, done := serveForTest(t, s)

	resp := postJob(t, base, "drainer", quickBatch)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy job: status %d", resp.StatusCode)
	}
	persisted := ds.Len()
	if persisted == 0 {
		t.Fatal("healthy job persisted nothing")
	}

	// Trip the circuit, then heal the disk: the breaker stays open (its
	// next probe is an hour away) while the file underneath works again.
	sw.Set(true)
	resp = postJob(t, base, "drainer", []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "pvm", Sizes: []int{0, 64, 256, 1024}},
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	sw.Set(false)
	if st := ds.Health().State; st != store.CircuitOpen {
		t.Fatalf("circuit is %s, want %s", st, store.CircuitOpen)
	}

	// One sweep provably in flight when the drain starts.
	stream := streamJob(t, base, "straggler", []tooleval.ExperimentSpec{{Kind: tooleval.KindEvaluate, Scale: 0.06}})
	defer stream.Body.Close()
	var first []idEvent
	if err := readIDEvents(stream.Body, func(ev idEvent) bool {
		first = append(first, ev)
		return len(first) < 2
	}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	drain()
	rest := collectIDEvents(t, stream.Body)
	if len(rest) == 0 || rest[len(rest)-1].name != "job_done" {
		t.Fatalf("in-flight stream did not reach job_done through the drain")
	}
	serveErr := <-done
	elapsed := time.Since(start)
	done <- serveErr // serveForTest's cleanup reads it again
	if elapsed >= drainTimeout {
		t.Fatalf("drain took %v, deadline %v", elapsed, drainTimeout)
	}
	if serveErr != nil {
		t.Fatalf("Serve returned %v, want a clean drain", serveErr)
	}
	// The circuit was open at close: closing the store surfaces the
	// latched write error rather than pretending the store is healthy.
	if err := ds.Close(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("closing the store returned %v, want the latched injected write error", err)
	}

	// Everything persisted before the fault survived the degraded drain.
	st, err := store.Open(dir, sim.EngineVersion)
	if err != nil {
		t.Fatalf("reopening store after drain: %v", err)
	}
	defer st.Close()
	if st.Len() < persisted {
		t.Fatalf("reopened store has %d cells, want >= %d", st.Len(), persisted)
	}
	t.Logf("degraded drain finished in %v; %d cells survived", elapsed, st.Len())
}
