package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"jvmpower/internal/experiments"
	"jvmpower/internal/fleet"
	"jvmpower/internal/metrics"
	"jvmpower/internal/pointproto"
	"jvmpower/internal/stats"
)

// The campaign-service workload: an in-process experiments.Daemon behind a
// loopback HTTP listener, with a fresh disk cache, a file journal, quotas
// off, and points executed on loopback fleet executor nodes. Closed-loop
// clients submit seeded quick campaigns, stream each job to completion and
// fetch its /result.

// journalSync is the measured stack's journal durability policy: group
// commit every 100 ms. With the -journal-sync point default every record
// waits for its own fsync under the journal mutex, and on a shared virtual
// disk that made campaign throughput and latency swing by 20-33% (the
// quartile spread over ten runs) with other tenants' I/O, so the workload
// measured the host's disk rather than the program. The traced run prices
// the default separately (journal.point_sync_slowdown).
const journalSync = "interval=100ms"

// traceCampaignJobs is how many campaigns each client submits in a traced
// run's two passes.
const traceCampaignJobs = 400

// rssJobsPerSecond sets the fixed amount of work peak_rss_mb is read
// after: rssJobsPerSecond × --seconds completed campaigns, about half of
// what a run completes on a 2-core Xeon VM. The daemon keeps every job it
// has served, so its resident set grows with the campaigns done; read at
// the end of a timed run it followed the host's speed, and its quartile
// spread over ten runs reached 0.30 of the median.
const rssJobsPerSecond = 250

// rssOverrun bounds how long an untraced run may go on past --seconds to
// complete the campaigns peak_rss_mb is read after, as a multiple of
// --seconds. Only a build several times slower than the one above needs
// it; its peak_rss_mb is then read when the run stops.
const rssOverrun = 2

// clientCount is the number of closed-loop clients, never more than nproc.
func clientCount(nproc int) int { return min(2, nproc) }

// serviceStack is the campaign-service program.
type serviceStack struct {
	reg       *metrics.Registry
	journal   *metrics.Journal
	jpath     string
	coord     *fleet.Coordinator
	daemon    *experiments.Daemon
	srv       *http.Server
	base      string
	stopNodes context.CancelFunc
	nodes     sync.WaitGroup
	srvDone   chan struct{}
}

// startService sets the program up in dir: two fleet nodes listening
// (handler computes their points; nil means experiments.HandleSpec), the
// coordinator connected to both, the daemon built with its journal synced
// by the given -journal-sync policy, Recover done on the empty journal,
// and the job API serving.
func startService(cfg config, dir, sync string, handler func(pointproto.Spec) []byte) (*serviceStack, error) {
	if handler == nil {
		handler = experiments.HandleSpec
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &serviceStack{reg: metrics.NewRegistry(), jpath: filepath.Join(dir, "journal.jsonl"), stopNodes: cancel}
	fail := func(err error) (*serviceStack, error) {
		_ = s.close() // the set-up error is the one to report
		return nil, err
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		addrs = append(addrs, ln.Addr().String())
		s.nodes.Add(1)
		go func() {
			defer s.nodes.Done()
			_ = fleet.Serve(ctx, ln, fleet.ServeConfig{Capacity: max(1, cfg.nproc/2), Handler: handler, Stderr: io.Discard})
		}()
	}
	s.coord = fleet.New(fleet.Config{Nodes: addrs, Metrics: s.reg})
	j, err := metrics.OpenJournal(s.jpath)
	if err != nil {
		return fail(err)
	}
	s.journal = j
	policy, interval, err := metrics.ParseSyncPolicy(sync)
	if err != nil {
		return fail(err)
	}
	j.SetSync(policy, interval)
	s.daemon = experiments.NewDaemon(experiments.DaemonConfig{
		Journal:     j,
		JournalPath: s.jpath,
		Metrics:     s.reg,
		CacheDir:    filepath.Join(dir, "cache"),
		Fleet:       s.coord,
		MaxInflight: clientCount(cfg.nproc),
	})
	if _, err := s.daemon.Recover(); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	mux := http.NewServeMux()
	s.daemon.RegisterHTTP(mux)
	s.srv = &http.Server{Handler: experiments.WithRequestID(mux), ReadHeaderTimeout: 5 * time.Second}
	s.srvDone = make(chan struct{})
	go func() {
		defer close(s.srvDone)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	s.base = "http://" + ln.Addr().String()
	s.daemon.Start()

	deadline := time.Now().Add(10 * time.Second)
	for s.reg.Gauge("fleet.nodes.up").Value() < float64(len(addrs)) {
		if time.Now().After(deadline) {
			return fail(errors.New("fleet nodes did not come up within 10s"))
		}
		time.Sleep(time.Millisecond)
	}
	cl := newClient(s.base)
	defer cl.close()
	resp, err := cl.hc.Get(s.base + "/healthz")
	if err != nil {
		return fail(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection closes cleanly
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("/healthz: HTTP %d", resp.StatusCode))
	}
	return s, nil
}

// close shuts the stack down in dependency order and waits for every
// goroutine it started. Safe on a partly built stack.
func (s *serviceStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx) // clients are done; nothing is left to drain
		<-s.srvDone
	}
	var err error
	if s.daemon != nil {
		s.daemon.Drain()
		err = s.daemon.Wait(ctx)
	}
	if s.coord != nil {
		s.coord.Close()
	}
	s.stopNodes()
	s.nodes.Wait()
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// client is one closed-loop client with a single HTTP connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// jobObs is one campaign as its client saw it.
type jobObs struct {
	spec                               experiments.CampaignSpec
	total, submit, wait, run, fetch    time.Duration
	started, submitted, fetchStart, t0 time.Time
	points                             []recordObs
	digest                             string
	problem                            string
}

// recordObs is what a client keeps of one streamed point record. A run
// keeps hundreds of thousands of them; holding the decoded PointEvents
// would put the benchmark's own bookkeeping into the resident set that
// peak_rss_mb reads.
type recordObs struct {
	sec     float64 // the record's duration_ms, in seconds
	source  string
	fleetID string  // set on fleet-computed points: the seed and pointID
	mbc     float64 // simulated Mbc of a fleet-computed ok point
	problem string  // set on an error record
}

func newRecordObs(p experiments.PointEvent, spec experiments.CampaignSpec) recordObs {
	o := recordObs{sec: p.DurationMS / 1e3, source: p.Source}
	if p.Outcome != "ok" {
		o.problem = fmt.Sprintf("%s/%s/%dMB: %s", p.Bench, p.Collector, p.HeapMB, p.Error)
	}
	if p.Source == "fleet" {
		o.fleetID = fmt.Sprintf("%d|%s", spec.Seed, pointID(p.Bench, p.Flavor, p.Collector, p.HeapMB, p.Platform, p.S10))
		if p.Outcome == "ok" {
			o.mbc = float64(simBytecodes(p.Bench, p.S10, spec.Quick)) / 1e6
		}
	}
	return o
}

// do submits one campaign, streams its events to the terminal record and
// fetches its result.
func (c *client) do(spec experiments.CampaignSpec) jobObs {
	o := jobObs{spec: spec, t0: time.Now()}
	body, err := json.Marshal(spec)
	if err != nil {
		o.problem = err.Error()
		return o
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.problem = "submit: " + err.Error()
		return o
	}
	var st experiments.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		o.problem = fmt.Sprintf("submit: HTTP %d (%v)", resp.StatusCode, err)
		return o
	}
	o.submitted = time.Now()
	o.submit = o.submitted.Sub(o.t0)

	resp, err = c.hc.Get(c.base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		o.problem = "stream: " + err.Error()
		return o
	}
	state := ""
	var done time.Time
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	for {
		var ev experiments.JobEvent
		if err := dec.Decode(&ev); err != nil {
			break // EOF once the terminal record is sent
		}
		switch ev.State {
		case "started":
			o.started = time.Now()
		case "point":
			if ev.Point != nil {
				o.points = append(o.points, newRecordObs(*ev.Point, spec))
			}
		case "completed", "failed", "cancelled", "expired", "shed":
			state, done = ev.State, time.Now()
		}
	}
	resp.Body.Close()
	if state != "completed" {
		o.problem = fmt.Sprintf("job %s ended %q", st.ID, state)
		return o
	}
	o.wait = o.started.Sub(o.submitted)
	o.run = done.Sub(o.started)

	o.fetchStart = time.Now()
	resp, err = c.hc.Get(c.base + "/jobs/" + st.ID + "/result")
	if err != nil {
		o.problem = "result: " + err.Error()
		return o
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if resp.StatusCode != http.StatusOK || err != nil {
		o.problem = fmt.Sprintf("result: HTTP %d (%v)", resp.StatusCode, err)
		return o
	}
	o.fetch = end.Sub(o.fetchStart)
	o.total = end.Sub(o.t0)
	o.digest = textDigest(string(text))
	if n := strings.Count(string(text), "×"); n > 0 {
		o.problem = fmt.Sprintf("job %s rendered %d missing cells", st.ID, n)
	}
	return o
}

// drive runs the closed-loop clients. Before each campaign a client asks
// more, with the campaigns it has run and the campaigns all clients have
// completed, whether to go on. drive returns every job in completion
// order, the wall time, and peakRSSMB as read when the rssAt-th campaign
// completed (0 if rssAt is 0 or was not reached).
func drive(s *serviceStack, cfg config, more func(n, done int) bool, rssAt int) ([]jobObs, time.Duration, float64) {
	var mu sync.Mutex
	var jobs []jobObs
	var rss float64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientCount(cfg.nproc); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(s.base)
			defer cl.close()
			gen := newCampaignGen(cfg.seed, c)
			for n := 0; ; n++ {
				mu.Lock()
				done := len(jobs)
				mu.Unlock()
				if !more(n, done) {
					return
				}
				o := cl.do(gen.next())
				mu.Lock()
				jobs = append(jobs, o)
				if len(jobs) == rssAt {
					rss = peakRSSMB()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start), rss
}

// countJobs counts every job and every point record as an operation.
func countJobs(jobs []jobObs, out *outcome) {
	for _, j := range jobs {
		out.op(j.problem)
		for _, p := range j.points {
			out.op(p.problem)
		}
	}
}

// measureCampaigns is an untraced campaign-service run. It returns its own
// set-up time.
func measureCampaigns(cfg config, store *digestStore, out *outcome) (time.Duration, error) {
	dir, err := os.MkdirTemp(runDir(cfg), "campaign-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	s, err := startService(cfg, dir, journalSync, nil)
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0)
	rssAt := rssJobsPerSecond * int(cfg.seconds/time.Second)
	deadline := time.Now().Add(cfg.seconds)
	overrun := deadline.Add(rssOverrun * cfg.seconds)
	more := func(_, done int) bool {
		now := time.Now()
		return now.Before(deadline) || (done < rssAt && now.Before(overrun))
	}
	jobs, wall, rss := drive(s, cfg, more, rssAt)
	if rss == 0 {
		rss = peakRSSMB()
	}
	out.set("peak_rss_mb", rss)
	if err := s.close(); err != nil {
		return 0, err
	}
	countJobs(jobs, out)

	var jobSecs, pointSecs []float64
	var mbc float64
	for _, j := range jobs {
		if j.problem == "" {
			jobSecs = append(jobSecs, j.total.Seconds())
		}
		for _, p := range j.points {
			pointSecs = append(pointSecs, p.sec)
			mbc += p.mbc
		}
	}
	w := wall.Seconds()
	out.set("jobs_per_s", float64(len(jobSecs))/w)
	j50, j90 := percentiles(jobSecs)
	out.set("job_s_p50", j50)
	out.set("job_s_p90", j90)
	p50, p90 := percentiles(pointSecs)
	out.set("point_s_p50", p50)
	out.set("point_s_p90", p90)
	out.set("sim_mbc_per_s", mbc/w)
	fmt.Fprintf(os.Stderr, "perfbench: %d campaigns, %d point records in %.2fs\n", len(jobs), len(pointSecs), w)
	return setup, checkCampaigns(jobs, store, out)
}

// checkCampaigns compares every /result with a one-shot Runner render of
// the same spec, rendering (outside any timed region) the specs this build
// has not rendered before.
func checkCampaigns(jobs []jobObs, store *digestStore, out *outcome) error {
	missing := map[uint64][]experiments.CampaignSpec{}
	seen := map[string]bool{}
	for _, j := range jobs {
		key := campaignKey(j.spec)
		if _, ok := store.ref(key); !ok && !seen[key] && j.digest != "" {
			seen[key] = true
			missing[j.spec.Seed] = append(missing[j.spec.Seed], j.spec)
		}
	}
	if len(missing) > 0 {
		buildPrograms()
	}
	for seed, specs := range missing {
		r := experiments.NewRunner(nil)
		r.Quick = true
		r.Seed = seed
		for _, spec := range specs {
			var buf bytes.Buffer
			r.Out = &buf
			for _, fig := range spec.Figures {
				if err := r.RunFigure(fig); err != nil {
					return fmt.Errorf("reference render of %s: %w", campaignKey(spec), err)
				}
			}
			store.record(campaignKey(spec), textDigest(buf.String()))
		}
	}
	for _, j := range jobs {
		if j.digest == "" {
			continue
		}
		if ref, _ := store.ref(campaignKey(j.spec)); ref != j.digest {
			out.mismatch(campaignKey(j.spec) + " /result vs one-shot render")
		}
	}
	return nil
}

// nodeTimer wraps experiments.HandleSpec on the traced pass's nodes, timing
// each point inside the node.
type nodeTimer struct {
	tr *tracer

	mu    sync.Mutex
	byKey map[string]time.Duration
	total time.Duration
}

func (t *nodeTimer) handle(spec pointproto.Spec) []byte {
	t0 := time.Now()
	payload := experiments.HandleSpec(spec)
	d := time.Since(t0)
	key := fmt.Sprintf("%d|%s", spec.Seed, pointID(spec.Bench, spec.Flavor, spec.Collector, spec.HeapMB, spec.Platform, spec.S10))
	t.tr.add(t.tr.op(), "fleet.node.handle_spec", "", t0, d, 0, key)
	t.mu.Lock()
	t.byKey[key] = d
	t.total += d
	t.mu.Unlock()
	return payload
}

// tracedServicePass runs one pass of traceCampaignJobs campaigns per
// client on a fresh stack and returns the jobs, the wall time and the
// stack's registry and journal size. With nt set, the nodes time every
// point.
func tracedServicePass(cfg config, sync string, nt *nodeTimer) ([]jobObs, time.Duration, *metrics.Registry, [2]float64, error) {
	var jsize [2]float64
	dir, err := os.MkdirTemp(runDir(cfg), "campaign-trace-")
	if err != nil {
		return nil, 0, nil, jsize, err
	}
	defer os.RemoveAll(dir)
	var handler func(pointproto.Spec) []byte
	if nt != nil {
		handler = nt.handle
	}
	s, err := startService(cfg, dir, sync, handler)
	if err != nil {
		return nil, 0, nil, jsize, err
	}
	jobs, wall, _ := drive(s, cfg, func(n, _ int) bool { return n < traceCampaignJobs }, 0)
	if err := s.close(); err != nil {
		return nil, 0, nil, jsize, err
	}
	b, err := os.ReadFile(s.jpath)
	if err != nil {
		return nil, 0, nil, jsize, err
	}
	jsize = [2]float64{float64(bytes.Count(b, []byte("\n"))), float64(len(b))}
	return jobs, wall, s.reg, jsize, nil
}

// traceCampaigns is a traced campaign-service run: the same campaigns
// three times on fresh stacks — untraced, traced (job spans from the
// client, handler timing inside each fleet node), and untraced with the
// -journal-sync point default, which prices the per-record fsync.
func traceCampaigns(cfg config, store *digestStore, out *outcome, tr *tracer) error {
	jobsU, wallU, _, _, err := tracedServicePass(cfg, journalSync, nil)
	if err != nil {
		return err
	}
	countJobs(jobsU, out)
	nt := &nodeTimer{tr: tr, byKey: map[string]time.Duration{}}
	jobs, wall, reg, jsize, err := tracedServicePass(cfg, journalSync, nt)
	if err != nil {
		return err
	}
	countJobs(jobs, out)
	jobsP, wallP, _, _, err := tracedServicePass(cfg, "point", nil)
	if err != nil {
		return err
	}
	countJobs(jobsP, out)
	if err := checkCampaigns(append(append(jobsU, jobs...), jobsP...), store, out); err != nil {
		return err
	}
	out.set("journal.point_sync_slowdown", wallP.Seconds()/wallU.Seconds()-1)

	sources := map[string]int{}
	var wait, run, submit, fetch, fleetOver []float64
	for _, j := range jobs {
		if j.problem != "" {
			continue
		}
		op := tr.op()
		tr.add(op, "job", "", j.t0, j.total, 0, campaignKey(j.spec))
		tr.add(op, "http.submit", "job", j.t0, j.submit, 0, "")
		tr.add(op, "jobqueue.wait", "job", j.submitted, j.wait, 0, "")
		tr.add(op, "daemon.run", "job", j.started, j.run, 0, "")
		tr.add(op, "http.result", "job", j.fetchStart, j.fetch, 0, "")
		wait = append(wait, j.wait.Seconds())
		run = append(run, j.run.Seconds())
		submit = append(submit, float64(j.submit)/1e6)
		fetch = append(fetch, float64(j.fetch)/1e6)
		for _, p := range j.points {
			sources[p.source]++
			if p.fleetID == "" {
				continue
			}
			nt.mu.Lock()
			d, ok := nt.byKey[p.fleetID]
			nt.mu.Unlock()
			if ok {
				fleetOver = append(fleetOver, (p.sec-d.Seconds())*1e3)
			}
		}
	}
	runnerLayer(out, reg, sources, 0, wall)
	w50, w90 := percentiles(wait)
	out.set("jobqueue.wait_s_p50", w50)
	out.set("jobqueue.wait_s_p90", w90)
	out.set("daemon.run_s_p50", stats.Percentile(run, 50))
	out.set("daemon.http.submit_ms_p50", stats.Percentile(submit, 50))
	out.set("daemon.http.result_ms_p50", stats.Percentile(fetch, 50))
	out.set("jobqueue.shed", float64(sumCounters(reg, "jobqueue.shed.")))
	out.set("jobqueue.failed", float64(reg.Counter("jobqueue.failed").Value()))
	out.set("journal.records", jsize[0])
	out.set("journal.bytes", jsize[1])
	out.set("fleet.points", float64(reg.Counter("fleet.points").Value()))
	out.set("fleet.steals", float64(reg.Counter("fleet.steals").Value()))
	out.set("fleet.requeues", float64(reg.Counter("fleet.requeues").Value()))
	out.set("fleet.node_s", nt.total.Seconds())
	out.set("transport.fleet_overhead_ms_p50", stats.Percentile(fleetOver, 50))
	out.set("trace.overhead", wall.Seconds()/wallU.Seconds()-1)
	fmt.Fprintf(os.Stderr, "perfbench: traced %d campaigns: untraced wall %.2fs, traced wall %.2fs\n",
		len(jobs), wallU.Seconds(), wall.Seconds())
	return nil
}
