package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/runner"
	"tooleval/internal/server"
	"tooleval/perfbench/tplpass"
)

// The daemon-mixed inputs. The hot set is the paper's own primitive
// level: the TPL series of Table 3 and Figures 2-4, which the set-up
// writes to the durable store. A job has the shape of the batch
// examples/toolbenchd-client submits: three specs of three sizes from
// the paper's ladder. Two knobs have no source in the repository and
// are assumptions (see README.md, which reports how op_p50_ms depends
// on them): each job adds fresh cells no job asked for before
// (-fresh-cells, default 1), and the shared cache holds a share of the
// hot set (-cache-share, default 0.5), so a hot cell is served from
// memory or, once evicted, from disk about equally often.
const (
	specsPerJob  = 3
	sizesPerSpec = 3
	// freshBlock is how many fresh sizes a tenant draws from a cell
	// family, in the seed's order, before moving on to larger ones.
	// Drawn without replacement from a fixed range, the mean fresh size,
	// and so a fresh cell's cost, does not grow with the number of jobs
	// run: over the catalog's 62 families a tenant's first 63488 fresh
	// cells, twice what a 20 s window holds on the reference machine,
	// stay below 4 KiB.
	freshBlock = 1024
)

// paperSeries are the TPL series of Table 3 (ping-pong on the three
// SUN networks) and Figures 2-4 (broadcast, ring and global sum at 4
// ranks on Ethernet and the ATM WAN), each over its full size ladder:
// the 162 cells the tpl-cold pass simulates.
func paperSeries() []tooleval.ExperimentSpec {
	supports := make(map[[2]string]bool)
	for _, pf := range tooleval.Platforms() {
		for _, tool := range pf.Tools {
			supports[[2]string{pf.Key, tool}] = true
		}
	}
	var specs []tooleval.ExperimentSpec
	add := func(kind string, procs int, sizes []int, platforms ...string) {
		for _, pf := range platforms {
			for _, tool := range []string{"p4", "pvm", "express"} {
				if supports[[2]string{pf, tool}] {
					specs = append(specs, tooleval.ExperimentSpec{Kind: kind, Platform: pf, Tool: tool, Procs: procs, Sizes: sizes})
				}
			}
		}
	}
	ladder := bench.StandardSizes()
	add(tooleval.KindPingPong, 0, ladder, "sun-ethernet", "sun-atm-lan", "sun-atm-wan")
	add(tooleval.KindBroadcast, tplpass.Procs, ladder, "sun-ethernet", "sun-atm-wan")
	add(tooleval.KindRing, tplpass.Procs, ladder, "sun-ethernet", "sun-atm-wan")
	// Figure 4 plots p4 and Express on Ethernet and p4 on the ATM WAN.
	for _, s := range [][2]string{{"sun-ethernet", "p4"}, {"sun-ethernet", "express"}, {"sun-atm-wan", "p4"}} {
		specs = append(specs, tooleval.ExperimentSpec{Kind: tooleval.KindGlobalSum, Platform: s[0], Tool: s[1], Procs: tplpass.Procs, Sizes: bench.VectorSizes()})
	}
	return specs
}

// freshFamilies are every TPL cell family of the catalog: the four
// kinds on every platform and tool, at the paper's 4 ranks, except the
// global sum PVM lacks. A fresh cell may come from any of them.
func freshFamilies() []tooleval.ExperimentSpec {
	var specs []tooleval.ExperimentSpec
	for _, pf := range tooleval.Platforms() {
		for _, tool := range pf.Tools {
			specs = append(specs,
				tooleval.ExperimentSpec{Kind: tooleval.KindPingPong, Platform: pf.Key, Tool: tool},
				tooleval.ExperimentSpec{Kind: tooleval.KindBroadcast, Platform: pf.Key, Tool: tool, Procs: tplpass.Procs},
				tooleval.ExperimentSpec{Kind: tooleval.KindRing, Platform: pf.Key, Tool: tool, Procs: tplpass.Procs})
			if tool != "pvm" {
				specs = append(specs, tooleval.ExperimentSpec{Kind: tooleval.KindGlobalSum, Platform: pf.Key, Tool: tool, Procs: tplpass.Procs})
			}
		}
	}
	return specs
}

// hotCells is the number of cells the series hold.
func hotCells(series []tooleval.ExperimentSpec) int {
	n := 0
	for _, s := range series {
		n += len(s.Sizes)
	}
	return n
}

// mixGen generates one tenant's batches from the seed.
type mixGen struct {
	series   []tooleval.ExperimentSpec
	families []tooleval.ExperimentSpec
	rng      *rand.Rand
	tenant   int
	fresh    int         // fresh cells per job
	order    []int       // the order fresh sizes are drawn in, a permutation of freshBlock
	next     map[int]int // per family: fresh sizes handed out so far
}

func newMixGen(seed int64, tenant, fresh int) *mixGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(tenant) + 1))
	return &mixGen{
		series:   paperSeries(),
		families: freshFamilies(),
		rng:      rng,
		tenant:   tenant,
		fresh:    fresh,
		order:    rng.Perm(freshBlock),
		next:     make(map[int]int),
	}
}

// batch returns the tenant's next job: specsPerJob distinct paper
// series, each cut to sizesPerSpec of its sizes, drawn uniformly, then
// one spec of fresh cells from a family drawn uniformly. Fresh sizes are odd, so they miss every
// ladder (whose sizes are all even), and tenant t takes the odd sizes
// 2*(slots*m+t)+1, so no fresh cell repeats.
func (g *mixGen) batch() []tooleval.ExperimentSpec {
	specs := make([]tooleval.ExperimentSpec, 0, specsPerJob+1)
	for _, i := range g.rng.Perm(len(g.series))[:specsPerJob] {
		s := g.series[i]
		pick := g.rng.Perm(len(s.Sizes))[:sizesPerSpec]
		slices.Sort(pick)
		sizes := make([]int, len(pick))
		for k, j := range pick {
			sizes[k] = s.Sizes[j]
		}
		s.Sizes = sizes
		specs = append(specs, s)
	}
	if g.fresh == 0 {
		return specs
	}
	i := g.rng.Intn(len(g.families))
	s := g.families[i]
	s.Sizes = make([]int, g.fresh)
	for k := range s.Sizes {
		n := g.next[i]
		m := freshBlock*(n/freshBlock) + g.order[n%freshBlock]
		s.Sizes[k] = 2*(slots*m+g.tenant) + 1
		g.next[i]++
	}
	return append(specs, s)
}

// daemonFixture is toolbenchd in process: server.New on a loopback
// listener, per-tenant parallelism 1, a durable store behind a shared
// cache smaller than the hot set, and one closed-loop client per
// tenant.
type daemonFixture struct {
	dir     string
	store   *tooleval.ResultStore
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
	seed    int64
	fresh   int
	gens    []*mixGen
	// reports holds each client's served report hashes in job order,
	// zero for a job that failed first, written only by that client's
	// goroutine. The check regenerates the batches from the seed
	// instead of keeping them.
	reports [][][32]byte
}

func setupDaemonMixed(ctx context.Context, cfg config, tr *tracer) (fx fixture, err error) {
	f := &daemonFixture{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: slots}}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.dir, err = os.MkdirTemp(cfg.out, "store-"); err != nil {
		return nil, err
	}
	start := time.Now()
	if f.store, err = tooleval.OpenResultStore(f.dir); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.sample("store.open_ms", float64(time.Since(start).Nanoseconds())/1e6)
	}
	hot := paperSeries()
	capacity := max(1, int(cfg.cacheShare*float64(hotCells(hot))))
	if f.srv, err = server.New(server.Config{Parallelism: 1, CacheCapacity: capacity}); err != nil {
		return nil, err
	}
	var tier runner.Tier = f.store
	if tr != nil {
		tier = timedTier{Tier: f.store, tr: tr}
	}
	f.srv.Cache().SetTier(tier)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.httpSrv = &http.Server{Handler: f.srv.Handler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.httpSrv.Serve(ln) }()

	// Warm the store and the cache with the hot set.
	body, err := jobBody(hot)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", "warmup")
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("warm-up job: status %d", resp.StatusCode)
	}
	f.seed, f.fresh = cfg.seed, cfg.freshCells
	for c := 0; c < slots; c++ {
		f.gens = append(f.gens, newMixGen(cfg.seed, c, f.fresh))
	}
	f.reports = make([][][32]byte, slots)
	return f, nil
}

func jobBody(specs []tooleval.ExperimentSpec) ([]byte, error) {
	type spec struct {
		Kind     string `json:"kind"`
		Platform string `json:"platform"`
		Tool     string `json:"tool"`
		Procs    int    `json:"procs,omitempty"`
		Sizes    []int  `json:"sizes"`
	}
	out := struct {
		Specs []spec `json:"specs"`
	}{}
	for _, s := range specs {
		out.Specs = append(out.Specs, spec{s.Kind, s.Platform, s.Tool, s.Procs, s.Sizes})
	}
	return json.Marshal(out)
}

// op is one job: POST the tenant's next batch with an SSE feed, read
// the feed to job_done, then GET the report.
func (f *daemonFixture) op(ctx context.Context, client, _ int, tr *tracer) (res opResult) {
	specs := f.gens[client].batch()
	var served [32]byte // stays zero when the job fails before its report
	defer func() { f.reports[client] = append(f.reports[client], served) }()
	tenant := fmt.Sprintf("tenant-%d", client)
	body, err := jobBody(specs)
	if err != nil {
		return opResult{err: err}
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return opResult{err: err}
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("X-Tenant", tenant)
	resp, err := f.client.Do(req)
	if err != nil {
		return opResult{err: err}
	}
	feed, err := readFeed(resp, t0)
	resp.Body.Close()
	if tr != nil {
		feed.trace(ctx, tr, t0)
	}
	res = opResult{cells: feed.cells, firstCell: feed.firstCell, err: err}
	if err != nil {
		return res
	}

	getStart := time.Now()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/jobs/"+feed.jobID+"/report", nil)
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err = f.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	report, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report: status %d", resp.StatusCode)
	}
	if tr != nil {
		ref, _ := spanFrom(ctx)
		end := tr.now()
		getNS := time.Since(getStart).Nanoseconds()
		tr.record(span{ID: tr.newID(), Parent: ref.id, Op: ref.op, Layer: "server", Name: "report", Start: end - getNS, End: end})
		tr.sample("server.report_get_ms", float64(getNS)/1e6)
	}
	if err != nil {
		res.err = err
		return res
	}
	served = sha256.Sum256(report)
	return res
}

// feedStats is what one job's SSE feed showed the client. Times are
// offsets from the POST.
type feedStats struct {
	jobID            string
	status           int
	admit, firstCell time.Duration
	done             time.Duration
	gaps             []time.Duration
	events, cells    int
	hits, misses     int
	bytes            int64
}

// readFeed reads a job's SSE feed to its job_done event. A refusal, a
// feed without job_done, or a job that did not finish cleanly is an
// error.
func readFeed(resp *http.Response, t0 time.Time) (feedStats, error) {
	fs := feedStats{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fs, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var name string
	var last time.Duration
	for {
		line, err := br.ReadString('\n')
		fs.bytes += int64(len(line))
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fs, errors.New("feed ended before job_done")
			}
			return fs, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			at := time.Since(t0)
			if fs.events > 0 {
				fs.gaps = append(fs.gaps, at-last)
			}
			last = at
			fs.events++
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch name {
			case "job":
				fs.admit = at
				var st struct {
					Job string `json:"job"`
				}
				if err := json.Unmarshal(data, &st); err != nil {
					return fs, fmt.Errorf("job event: %w", err)
				}
				fs.jobID = st.Job
			case "cell":
				if fs.cells == 0 {
					fs.firstCell = at
				}
				fs.cells++
				var ce struct {
					Cached bool   `json:"cached"`
					Error  string `json:"error"`
				}
				if err := json.Unmarshal(data, &ce); err != nil {
					return fs, fmt.Errorf("cell event: %w", err)
				}
				if ce.Error != "" {
					return fs, fmt.Errorf("cell failed: %s", ce.Error)
				}
				if ce.Cached {
					fs.hits++
				} else {
					fs.misses++
				}
			case "job_done":
				fs.done = at
				var st struct {
					State  string `json:"state"`
					Failed int    `json:"failed"`
				}
				if err := json.Unmarshal(data, &st); err != nil {
					return fs, fmt.Errorf("job_done event: %w", err)
				}
				// Drain the rest of the response so the connection is reused.
				n, _ := io.Copy(io.Discard, br)
				fs.bytes += n
				if st.State != "done" || st.Failed != 0 {
					return fs, fmt.Errorf("job %s ended %s with %d failed specs", fs.jobID, st.State, st.Failed)
				}
				if fs.jobID == "" {
					return fs, errors.New("feed had no job event")
				}
				return fs, nil
			}
		}
	}
}

// trace records what a traced job's feed showed: server spans for
// admission and streaming, and the server's per-job samples.
func (fs feedStats) trace(ctx context.Context, tr *tracer, t0 time.Time) {
	if fs.status == http.StatusTooManyRequests {
		tr.add("server.refused", 1)
	}
	ref, _ := spanFrom(ctx)
	base := tr.now() - int64(time.Since(t0))
	tr.record(span{ID: tr.newID(), Parent: ref.id, Op: ref.op, Layer: "server", Name: "admit", Start: base, End: base + int64(fs.admit)})
	if fs.done > 0 {
		tr.record(span{ID: tr.newID(), Parent: ref.id, Op: ref.op, Layer: "server", Name: "stream", Start: base + int64(fs.admit), End: base + int64(fs.done)})
	}
	tr.sample("server.admit_ms", float64(fs.admit.Nanoseconds())/1e6)
	if fs.cells > 0 {
		tr.sample("server.first_cell_ms", float64(fs.firstCell.Nanoseconds())/1e6)
	}
	for _, g := range fs.gaps {
		tr.sample("server.event_gap_us", float64(g.Nanoseconds())/1e3)
	}
	tr.add("server.events", float64(fs.events))
	tr.add("server.sse_bytes", float64(fs.bytes))
	tr.add("runner.hits", float64(fs.hits))
	tr.add("runner.misses", float64(fs.misses))
}

// check replays every job's batch through a local Session and counts
// the jobs whose served report differs from the local one. Each
// client's batches are regenerated from the seed and replayed on their
// own goroutine. A job that failed before its report was fetched was
// already counted as failed and is skipped.
func (f *daemonFixture) check(ctx context.Context) (int, error) {
	sess := tooleval.NewSession(tooleval.WithParallelism(slots))
	bad := make([]int, len(f.reports))
	errs := make([]error, len(f.reports))
	var wg sync.WaitGroup
	for c, reports := range f.reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newMixGen(f.seed, c, f.fresh)
			for _, served := range reports {
				specs := gen.batch()
				if served == ([32]byte{}) {
					continue
				}
				results, specErrs := sess.SubmitAll(ctx, specs)
				want, err := server.MarshalBatchReport(results, specErrs)
				if err != nil {
					errs[c] = err
					return
				}
				if sha256.Sum256(want) != served {
					bad[c]++
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range bad {
		total += n
	}
	return total, errors.Join(errs...)
}

func (f *daemonFixture) close() error {
	var errs []error
	if f.httpSrv != nil {
		f.httpSrv.Close()
		if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Close())
	}
	if f.store != nil {
		errs = append(errs, f.store.Close())
	}
	if f.dir != "" {
		errs = append(errs, os.RemoveAll(f.dir))
	}
	f.client.CloseIdleConnections()
	return errors.Join(errs...)
}
