package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"tooleval"
)

// TestLoadManyConcurrentTenants is the capacity drill: many tenants
// stream sweeps concurrently against one server, every stream closes
// with a completed job, and every report is byte-identical to a local
// Session running the same batch. Run with -race in CI; 100 tenants
// normally, 50 in -short mode.
func TestLoadManyConcurrentTenants(t *testing.T) {
	tenants := 100
	if testing.Short() {
		tenants = 50
	}

	// Parallelism 2 bounds total simulation goroutines at 2 per tenant
	// session; the shared cache deduplicates the overlapping cells.
	_, ts := newTestServer(t, Config{Parallelism: 2})

	batches := [][]tooleval.ExperimentSpec{
		{
			{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 64, 256, 1024}},
			{Kind: tooleval.KindRing, Platform: "sun-ethernet", Tool: "p4", Procs: 4, Sizes: []int{64, 256}},
		},
		{
			{Kind: tooleval.KindBroadcast, Platform: "sun-atm-lan", Tool: "pvm", Procs: 8, Sizes: []int{64, 1024}},
			{Kind: tooleval.KindApp, Platform: "sun-ethernet", Tool: "p4", App: "fft2d", ProcsList: []int{1, 2, 4}, Scale: 1},
		},
		{
			{Kind: tooleval.KindGlobalSum, Platform: "alpha-fddi", Tool: "p4", Procs: 4, Sizes: []int{16, 64}},
			{Kind: tooleval.KindPingPong, Platform: "sp1-switch", Tool: "pvm", Sizes: []int{0, 256}},
		},
	}
	want := make([][]byte, len(batches))
	for i, b := range batches {
		want[i] = localReport(t, b)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: tenants}}
	var wg sync.WaitGroup
	errc := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t-%03d", i)
			batch := batches[i%len(batches)]

			req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", specsBody(t, batch))
			if err != nil {
				errc <- err
				return
			}
			req.Header.Set("Accept", "text/event-stream")
			req.Header.Set("X-Tenant", tenant)
			resp, err := client.Do(req)
			if err != nil {
				errc <- fmt.Errorf("%s: %w", tenant, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("%s: status %d", tenant, resp.StatusCode)
				return
			}

			var last sseEvent
			starts, dones := 0, 0
			if err := readEvents(resp.Body, func(ev sseEvent) bool {
				last = ev
				switch ev.name {
				case "spec_start":
					starts++
				case "spec_done":
					dones++
				}
				return true
			}); err != nil {
				errc <- fmt.Errorf("%s: reading stream: %w", tenant, err)
				return
			}
			if last.name != "job_done" {
				errc <- fmt.Errorf("%s: stream ended on %q, want job_done", tenant, last.name)
				return
			}
			var closed jobStatusWire
			if err := json.Unmarshal(last.data, &closed); err != nil {
				errc <- fmt.Errorf("%s: %w", tenant, err)
				return
			}
			if closed.State != jobDone || closed.Failed != 0 {
				errc <- fmt.Errorf("%s: job_done = %+v", tenant, closed)
				return
			}
			if starts != len(batch) || dones != len(batch) {
				errc <- fmt.Errorf("%s: %d/%d spec pairs, want %d", tenant, starts, dones, len(batch))
				return
			}

			req2, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+closed.Job+"/report", nil)
			req2.Header.Set("X-Tenant", tenant)
			r2, err := client.Do(req2)
			if err != nil {
				errc <- fmt.Errorf("%s: fetching report: %w", tenant, err)
				return
			}
			body, err := io.ReadAll(r2.Body)
			r2.Body.Close()
			if err != nil || r2.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("%s: report status %d err %v", tenant, r2.StatusCode, err)
				return
			}
			if !bytes.Equal(body, want[i%len(batches)]) {
				errc <- fmt.Errorf("%s: report differs from local run", tenant)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	failures := 0
	for err := range errc {
		failures++
		t.Error(err)
	}
	if failures == 0 {
		t.Logf("%d tenants streamed concurrently, all reports byte-identical to local runs", tenants)
	}
}

// serveForTest runs Server.Serve on a loopback listener and returns
// the base URL, the cancel that starts the drain, and a channel with
// Serve's return value.
func serveForTest(t *testing.T, s *Server) (base string, drain context.CancelFunc, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			done <- err
		case <-time.After(60 * time.Second):
			t.Error("Serve did not return after drain")
		}
	})
	return "http://" + ln.Addr().String(), cancel, done
}

// TestDrainMidLoadGraceful cancels the serve context while streams are
// mid-sweep: every in-flight job must run to a clean job_done (the
// drain waits), new submissions must be refused, and Serve must return
// nil within the drain deadline.
func TestDrainMidLoadGraceful(t *testing.T) {
	s, err := New(Config{Parallelism: 2, DrainTimeout: 45 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	base, drain, done := serveForTest(t, s)

	const jobs = 6
	admitted := make(chan struct{}, jobs)
	type outcome struct {
		tenant string
		last   sseEvent
		err    error
	}
	results := make(chan outcome, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			tenant := fmt.Sprintf("drain-%d", i)
			// Distinct scales make distinct cells, so every job has
			// real simulation left when the drain starts.
			batch := []tooleval.ExperimentSpec{{Kind: tooleval.KindEvaluate, Scale: 0.05 + float64(i)*0.01}}
			req, _ := http.NewRequest("POST", base+"/v1/jobs", specsBody(t, batch))
			req.Header.Set("Accept", "text/event-stream")
			req.Header.Set("X-Tenant", tenant)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results <- outcome{tenant: tenant, err: err}
				admitted <- struct{}{}
				return
			}
			defer resp.Body.Close()
			var last sseEvent
			first := true
			err = readEvents(resp.Body, func(ev sseEvent) bool {
				if first {
					first = false
					admitted <- struct{}{}
				}
				last = ev
				return true
			})
			results <- outcome{tenant: tenant, last: last, err: err}
		}(i)
	}
	for i := 0; i < jobs; i++ {
		<-admitted
	}

	drain() // SIGTERM equivalent: all jobs are provably in flight

	for i := 0; i < jobs; i++ {
		o := <-results
		if o.err != nil {
			t.Errorf("%s: %v", o.tenant, o.err)
			continue
		}
		if o.last.name != "job_done" {
			t.Errorf("%s: stream ended on %q, want job_done", o.tenant, o.last.name)
			continue
		}
		var closed jobStatusWire
		if err := json.Unmarshal(o.last.data, &closed); err != nil {
			t.Errorf("%s: %v", o.tenant, err)
			continue
		}
		if closed.State != jobDone || closed.Failed != 0 {
			t.Errorf("%s: drained job = %+v, want a clean finish", o.tenant, closed)
		}
	}

	select {
	case err := <-done:
		done <- err
		if err != nil {
			t.Fatalf("graceful drain returned %v, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Serve did not return")
	}

	// The drained server no longer accepts work.
	resp, err := http.Post(base+"/v1/jobs", "application/json", specsBody(t, quickBatch[:1]))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusServiceUnavailable {
			t.Fatalf("post-drain submit: status %d, want refusal", code)
		}
	} // a connection error is equally a refusal: the listener is gone
}

// TestDrainDeadlineCancelsStragglers drains with a deadline too short
// for the in-flight job: the job's context must be cancelled (state
// cancelled, spec pairs intact) instead of the drain hanging, and Serve
// reports the deadline breach.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s, err := New(Config{Parallelism: 2, DrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	base, drain, done := serveForTest(t, s)

	batch := []tooleval.ExperimentSpec{{Kind: tooleval.KindEvaluate, Scale: 0.25}}
	req, _ := http.NewRequest("POST", base+"/v1/jobs", specsBody(t, batch))
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("X-Tenant", "straggler")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var jobID string
	readEvents(resp.Body, func(ev sseEvent) bool {
		if ev.name == "job" {
			var w jobStatusWire
			json.Unmarshal(ev.data, &w)
			jobID = w.Job
			return false
		}
		return true
	})
	if jobID == "" {
		t.Fatal("no job event before drain")
	}

	drain()
	// Keep consuming until the forced close severs the stream.
	io.Copy(io.Discard, resp.Body)

	var serveErr error
	select {
	case serveErr = <-done:
		done <- serveErr
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after deadline drain")
	}
	if serveErr == nil {
		t.Fatal("deadline-breaching drain returned nil, want the shutdown error")
	}

	j, ok := s.jobs.get("straggler", jobID)
	if !ok {
		t.Fatalf("job %s vanished", jobID)
	}
	st := j.status()
	if st.State != jobCancelled {
		t.Fatalf("straggler state = %q, want %q", st.State, jobCancelled)
	}
	if st.SpecStarts != 1 || st.SpecDones != 1 {
		t.Fatalf("straggler pairs = %d/%d, want 1/1", st.SpecStarts, st.SpecDones)
	}
}

// TestDrainWithStoreFlushes checks the drain path syncs the durable
// tier: cells simulated right before SIGTERM are on disk for the next
// instance.
func TestDrainWithStoreFlushes(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DrainTimeout: 45 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	st := attachStore(t, s, dir)
	base, drain, done := serveForTest(t, s)

	resp := postJob(t, base, "alice", quickBatch[:1])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	drain()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	done <- nil
	if err := st.Close(); err != nil {
		t.Fatalf("closing store after drain: %v", err)
	}

	st2, err := tooleval.OpenResultStore(dir)
	if err != nil {
		t.Fatalf("reopening store after drain: %v", err)
	}
	defer st2.Close()
	if st2.Len() == 0 {
		t.Fatal("drained store holds no cells")
	}
}
