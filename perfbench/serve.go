package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	winofault "repro"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/service"
)

// The serve-fleet workload: an in-process service and dist coordinator on
// loopback HTTP with two in-process workers at one faultsim worker each,
// driven by two callers in a closed loop. The callers move in lock step —
// each round both send their requests and wait for all replies — so that a
// duplicate can be sent while its original is certainly in flight, and the
// request sequence is a pure function of the seed.

const (
	fleetWorkers = 2
	// freshSamples keeps cold campaigns small, so that a run delivers as
	// many as the workers' lease polling allows.
	freshSamples = 8
	// hitBurst is how many repeats a caller sends back to back beside a
	// fresh campaign. A cache read takes well under a millisecond and a
	// fresh campaign hundreds, so the burst ends long before the campaign
	// does: it gives the hit percentiles their samples without lengthening
	// the pass, and it sets no throughput figure.
	hitBurst = 40
	// fleetSetupRepeats is how often the fleet is set up; setup_s is the
	// median. A set-up takes about 0.2 s, so it is repeated more often
	// than a sweep's.
	fleetSetupRepeats = 9
)

// pairKind is what the two callers send in one round.
type pairKind int

const (
	freshFresh pairKind = iota // two distinct new campaigns: the second queues behind the first
	freshDup                   // one new campaign sent by both: the second coalesces
	freshHit                   // one new campaign, and a burst of repeats of finished ones
)

// part is the optional piece a fresh campaign carries.
type part int

const (
	plain      part = iota
	layers          // a layer-sensitivity phase: the largest payload and the longest run
	protection      // a TMR protection plan
	scenario        // a hardware fault scenario
	numParts
)

// roundPlan is one lock-step round: its kind and the part of each fresh
// campaign in it.
type roundPlan struct {
	kind  pairKind
	parts [2]part
}

// passPlan is the set of rounds every pass holds, in an order the seed
// shuffles. The mix is assumed, not measured: no record of real request
// traffic exists. Its four parts are the campaign kinds a CampaignRequest
// can ask for: a plain sweep (examples/quickstart), Layers
// (examples/layerwise), a Protection plan (examples/tmr_protection) and a
// hardware Scenario. Each is given an equal share. A fixed composition
// makes every pass the same work: each part makes a quarter of the fresh
// campaigns and of the cold deliveries, and exactly one cold delivery per
// pass queues behind another. Latency clusters therefore keep their sizes
// from seed to seed, and a percentile never moves from one cluster to the
// next.
var passPlan = []roundPlan{
	{freshFresh, [2]part{plain, protection}},
	{freshDup, [2]part{layers}},
	{freshDup, [2]part{scenario}},
	{freshDup, [2]part{protection}},
	{freshDup, [2]part{plain}},
	{freshHit, [2]part{layers}},
	{freshHit, [2]part{scenario}},
}

// Fresh campaigns alternate resnet50 on the two engines at one BER, so
// that cold latencies vary by what the service does with them, not by how
// much compute they happen to need. Layer-sensitivity requests use
// vgg19/winograd, whose 20-unit layer batch costs about what a plain
// resnet50 campaign does; resnet50's would cost five times more.
var freshEngines = []string{"direct", "winograd"}

const freshBER = 3e-11

// cycle deals the indices 0..n-1 in seed-shuffled rounds, so that every
// value occurs equally often however many are drawn.
type cycle struct {
	r    *rand.Rand
	perm []int
	i    int
}

func newCycle(r *rand.Rand, n int) *cycle { return &cycle{r: r, perm: make([]int, n), i: n} }

func (c *cycle) next() int {
	if c.i == len(c.perm) {
		for j := range c.perm {
			c.perm[j] = j
		}
		c.r.Shuffle(len(c.perm), func(a, b int) { c.perm[a], c.perm[b] = c.perm[b], c.perm[a] })
		c.i = 0
	}
	c.i++
	return c.perm[c.i-1]
}

// convNames lists a model's conv layer names at the default scale, the
// names a Protection plan addresses.
func convNames(model string) ([]string, error) {
	arch, err := models.ByName(model, models.Options{WidthMult: 0.125, InputSize: 32})
	if err != nil {
		return nil, err
	}
	var names []string
	for _, op := range arch.Ops {
		if op.Kind == "conv" {
			names = append(names, op.Name)
		}
	}
	return names, nil
}

// freshGen draws new small campaigns. Each has a seed unique within the
// run, so it misses the cache; the engines alternate in seed-shuffled
// pairs.
type freshGen struct {
	r      *rand.Rand
	seed   uint64
	id     int
	engine *cycle
}

func newFreshGen(r *rand.Rand, seed uint64) *freshGen {
	return &freshGen{r: r, seed: seed, engine: newCycle(r, len(freshEngines))}
}

func (g *freshGen) next(p part) (winofault.CampaignRequest, error) {
	req := winofault.CampaignRequest{
		Model:   "resnet50",
		Engine:  freshEngines[g.engine.next()],
		Samples: freshSamples,
		Rounds:  1,
		Seed:    campaignSeed(g.seed) + uint64(g.id) + 1,
		BERs:    []float64{freshBER},
	}
	g.id++
	switch p {
	case layers:
		req.Model, req.Engine, req.Layers = "vgg19", "winograd", true
	case protection:
		names, err := convNames(req.Model)
		if err != nil {
			return req, err
		}
		req.Protection = map[string][2]float64{names[g.r.IntN(len(names))]: {0.5, 0.25}}
	case scenario:
		req.Scenario = &winofault.Scenario{Kind: "burst"}
	}
	return req, nil
}

// finished holds the campaigns finished so far, by part. Repeats cycle
// through the parts, so that each makes a quarter of the cache reads too.
type finished struct {
	r      *rand.Rand
	byPart [numParts][]winofault.CampaignRequest
	next   *cycle
}

func newFinished(r *rand.Rand, warm winofault.CampaignRequest) *finished {
	f := &finished{r: r, next: newCycle(r, int(numParts))}
	f.byPart[plain] = append(f.byPart[plain], warm)
	return f
}

func (f *finished) add(p part, req winofault.CampaignRequest) { f.byPart[p] = append(f.byPart[p], req) }

// repeat picks a finished campaign to send again; a part with nothing
// finished yet falls back to the plain ones, which hold the warm-up
// campaign from the start.
func (f *finished) repeat() winofault.CampaignRequest {
	list := f.byPart[f.next.next()]
	if len(list) == 0 {
		list = f.byPart[plain]
	}
	return list[f.r.IntN(len(list))]
}

// leaseCounter wraps the coordinator's handler and counts lease calls by
// answer: the share answered 204 is the polling the fleet wastes.
type leaseCounter struct {
	next  http.Handler
	total atomic.Int64
	empty atomic.Int64
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func (l *leaseCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/lease") {
		l.next.ServeHTTP(w, r)
		return
	}
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	l.next.ServeHTTP(rec, r)
	l.total.Add(1)
	if rec.code == http.StatusNoContent {
		l.empty.Add(1)
	}
}

// fleet is one running service + coordinator + workers on loopback.
type fleet struct {
	svc     *service.Service
	coord   *dist.Coordinator
	srv     *http.Server
	url     string
	leases  *leaseCounter
	client  *winofault.Client
	stop    context.CancelFunc
	wg      sync.WaitGroup // the listener
	workers sync.WaitGroup
	conns   atomic.Int64 // server connections open
}

var quiet = slog.New(slog.DiscardHandler)

// warmRequest is the set-up campaign. It runs before the workers join, so
// the service executes it locally and set-up never waits on worker polling.
func warmRequest(seed uint64) winofault.CampaignRequest {
	return winofault.CampaignRequest{Model: "resnet50", Samples: freshSamples, Rounds: 1, Seed: campaignSeed(seed), BERs: []float64{1e-11}}
}

// startFleet is the timed set-up of serve-fleet.
func startFleet(ctx context.Context, seed uint64) (*fleet, error) {
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Logger: quiet})
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Distributor: coord, Logger: quiet})
	if err != nil {
		coord.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, errors.Join(err, svc.Close(ctx))
	}
	f := &fleet{svc: svc, coord: coord, url: "http://" + ln.Addr().String(), leases: &leaseCounter{next: coord.Handler()}, stop: func() {}}
	mux := http.NewServeMux()
	mux.Handle("/workers", f.leases)
	mux.Handle("/workers/", f.leases)
	mux.Handle("/", svc.Handler())
	f.srv = &http.Server{Handler: mux, ConnState: func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			f.conns.Add(1)
		case http.StateClosed, http.StateHijacked:
			f.conns.Add(-1)
		}
	}}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	if f.client, err = winofault.Dial(f.url); err != nil {
		return nil, errors.Join(err, f.close())
	}
	if _, _, err := f.client.Sweep(ctx, warmRequest(seed)); err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up campaign: %w", err), f.close())
	}
	if err := f.startWorkers(ctx); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

// startWorkers starts the in-process workers and waits until the
// coordinator lists each of them live.
func (f *fleet) startWorkers(ctx context.Context) error {
	known := map[string]bool{}
	for _, w := range f.coord.Fleet().Workers {
		known[w.ID] = true
	}
	wctx, stop := context.WithCancel(ctx)
	f.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			// RunWorker only returns once wctx is canceled, with its error.
			dist.RunWorker(wctx, dist.WorkerConfig{Server: f.url, Name: fmt.Sprintf("bench-%d", i), Workers: 1, Logger: quiet})
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		live := 0
		for _, w := range f.coord.Fleet().Workers {
			if w.Live && !known[w.ID] {
				live++
			}
		}
		if live == fleetWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("workers did not register")
		}
	}
}

// stopWorkers stops the in-process workers and waits until they have
// returned.
func (f *fleet) stopWorkers() {
	f.stop()
	f.workers.Wait()
}

// closeIdleConns closes every idle keep-alive connection, on the client
// and the server side, and waits until the server has released them. Each
// holds read and write buffers at both ends, and how many are open after a
// pass depends on timing, not on what the service keeps: leaving them in
// made live_heap_mb vary by 3% between runs of one seed.
func (f *fleet) closeIdleConns() error {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	f.srv.SetKeepAlivesEnabled(false)
	for deadline := time.Now().Add(5 * time.Second); f.conns.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d server connections still open", f.conns.Load())
		}
	}
	return nil
}

// close stops the workers, the listener, the service and the coordinator,
// and waits for every goroutine it started.
func (f *fleet) close() error {
	f.stopWorkers()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Shutdown counts a connection that was accepted but never carried a
	// request, such as a stopped worker's last dial, as busy for five
	// seconds. Nothing is in flight once the workers have stopped, so after
	// a short grace period the listener is closed outright.
	sctx, scancel := context.WithTimeout(ctx, 100*time.Millisecond)
	serr := f.srv.Shutdown(sctx)
	scancel()
	if errors.Is(serr, context.DeadlineExceeded) {
		serr = f.srv.Close()
	}
	err := errors.Join(serr, f.svc.Close(ctx))
	f.wg.Wait()
	f.coord.Close()
	return err
}

// delivery is one request's outcome as the caller saw it.
type delivery struct {
	Key    string
	Req    winofault.CampaignRequest
	Fresh  bool // the caller sent a campaign not sent before
	Cached bool
	// Sum is the digest of the result bytes. Keeping every delivery's
	// bytes would grow the heap that live_heap_mb measures with the run's
	// length.
	Sum [sha256.Size]byte
	Ms  float64
	Err error
}

// send sends one request and records what came back.
func (f *fleet) send(ctx context.Context, req winofault.CampaignRequest, fresh bool, tr *tracer) delivery {
	d := delivery{Req: req, Fresh: fresh}
	sp := tr.start("bench.request", -1)
	call := tr.start("service.sweep", sp)
	t0 := time.Now()
	_, st, err := f.client.Sweep(ctx, req)
	d.Ms = msSince(t0)
	tr.end(call)
	tr.end(sp)
	d.Err = err
	if st != nil {
		d.Key, d.Cached, d.Sum = st.ID, st.Cached, sha256.Sum256(st.Result)
		tr.setGroup(sp, st.ID)
		tr.setGroup(call, st.ID)
	}
	return d
}

// admission sums the service's per-tenant admission counters.
func admission(st service.Stats) (admitted, rejected int64) {
	for _, t := range st.Tenants {
		admitted += t.Admitted
		rejected += t.Rejected
	}
	return admitted, rejected
}

func runServe(ctx context.Context, o runOpts) (*Result, error) {
	res := newResult(o.Name)
	var setups []float64
	var f *fleet
	for i := 0; i < fleetSetupRepeats; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = startFleet(ctx, o.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	res.setQ("setup_s", Median(setups))

	// The traced run records every request, but these spans are written
	// out, not attributed: two callers' requests overlap in time.
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	r := rand.New(rand.NewPCG(o.Seed, 0x5e7e))
	gen := newFreshGen(r, o.Seed)
	var (
		all       []delivery
		computed  int
		heap      float64
		paused    time.Duration // the heap measurement, not timed
		errored   int
		done      = newFinished(r, warmRequest(o.Seed))
		passes    []float64
		cold, hit []float64
		order     []roundPlan
	)
	st0 := f.svc.Stats()
	f.leases.total.Store(0)
	f.leases.empty.Store(0)
	start := time.Now()
	for len(passes) == 0 || time.Since(start)-paused < o.Seconds {
		order = append(order[:0], passPlan...)
		r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		p0 := time.Now()
		for _, round := range order {
			kind := round.kind
			// Both slots are drawn before either is sent, in slot order, so
			// the requests are a function of the seed alone.
			var slots [2][]winofault.CampaignRequest
			var fresh [2]bool
			var parts [2]part
			for i := range slots {
				switch {
				case kind == freshHit && i == 1:
					for j := 0; j < hitBurst; j++ {
						slots[i] = append(slots[i], done.repeat())
					}
				case kind == freshDup && i == 1:
					slots[1] = slots[0]
				default:
					req, err := gen.next(round.parts[i])
					if err != nil {
						return nil, err
					}
					slots[i], fresh[i], parts[i] = []winofault.CampaignRequest{req}, true, round.parts[i]
				}
			}
			var out [2][]delivery
			var wg sync.WaitGroup
			for i := range slots {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, req := range slots[i] {
						d := f.send(ctx, req, fresh[i], tr)
						out[i] = append(out[i], d)
					}
				}()
			}
			wg.Wait()
			for i := range out {
				for _, d := range out[i] {
					all = append(all, d)
					res.Tally.Attempted++
					switch {
					case d.Err != nil:
						errored++
					case d.Cached:
						hit = append(hit, d.Ms)
					default:
						cold = append(cold, d.Ms)
					}
					if d.Err == nil && d.Fresh {
						computed++
						done.add(parts[i], d.Req)
					}
				}
			}
		}
		passes = append(passes, time.Since(p0).Seconds())
		if len(passes) == 1 {
			// The heap is measured once, after the first pass, so that it
			// holds the same campaigns however many passes the run fits.
			// In a deployment the workers are other processes. Here they
			// share the heap, and each keeps the systems of the last
			// campaigns it ran, so they are stopped for the measurement
			// and restarted.
			t := time.Now()
			f.stopWorkers()
			if err := f.closeIdleConns(); err != nil {
				return nil, err
			}
			heap = liveHeapMB()
			f.srv.SetKeepAlivesEnabled(true)
			if err := f.startWorkers(ctx); err != nil {
				return nil, err
			}
			paused += time.Since(t)
		}
	}
	wall := (time.Since(start) - paused).Seconds()
	st1 := f.svc.Stats()

	// Refusals are the service's own count of submissions it turned away.
	// The client retries a refused submission, so a delivery that errored
	// after a refusal is one failure, not two.
	a0, r0 := admission(st0)
	a1, r1 := admission(st1)
	refused := int(r1 - r0)
	res.Tally.Refusals = refused
	res.Tally.Errors = max(errored-refused, 0)

	q := Median(passes)
	res.set("sweep_s", q.Value, fmt.Sprintf("median of %d passes of %d lock-step rounds", q.N, len(passPlan)))
	res.set("campaigns_per_s", float64(computed)/wall, fmt.Sprintf("%d fresh campaigns computed; cache hits and coalesced duplicates not counted", computed))
	res.setQ("cold_p50_ms", Median(cold))
	res.setQ("cold_p90_ms", Tail(cold, 90))
	res.setQ("hit_p50_ms", Median(hit))
	res.setQ("hit_p90_ms", Tail(hit, 90))
	res.set("live_heap_mb", heap, "after two forced GCs at the end of the first pass, workers stopped")

	newMs := checkDeliveries(ctx, all, res)
	if o.Trace {
		res.setQ("winofault.new_ms", Median(newMs))
		// The service counts a coalesced submission as a cache miss that
		// was neither admitted nor rejected (service/tenant.go).
		misses := st1.CacheMisses - st0.CacheMisses
		res.set("service.coalesced", float64(misses-(a1-a0)-(r1-r0)), "cache misses neither admitted nor rejected, from Service.Stats")
		res.set("service.refused", float64(refused), "rejected submissions, from Service.Stats")
		if err := tr.write(traceFile(o, "-requests")); err != nil {
			return nil, err
		}
		return res, traceServe(ctx, f, o, all, st0, st1, res)
	}
	return res, nil
}

// checkDeliveries verifies every delivery: all deliveries of one campaign
// carry identical bytes, cold or cached, and those bytes equal what the
// local facade computes for the same request. It also reports how long
// winofault.New took for each distinct campaign.
func checkDeliveries(ctx context.Context, all []delivery, res *Result) (newMs []float64) {
	byKey := map[string][]int{}
	var keys []string
	for i, d := range all {
		if d.Err != nil {
			continue
		}
		if _, ok := byKey[d.Key]; !ok {
			keys = append(keys, d.Key)
		}
		byKey[d.Key] = append(byKey[d.Key], i)
	}
	local := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	newMs = make([]float64, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			local[k], newMs[k], errs[k] = localResult(ctx, all[byKey[key][0]].Req)
		}()
	}
	wg.Wait()
	for k, key := range keys {
		for _, i := range byKey[key] {
			if errs[k] != nil || all[i].Sum != sha256.Sum256(local[k]) {
				res.Tally.Mismatches++
			}
		}
	}
	return newMs
}

// localResult computes a request's result bytes through the facade alone,
// the way a library user would: build, protect, sweep, optionally the layer
// analysis at the middle BER, marshal.
// It also reports how long winofault.New took.
func localResult(ctx context.Context, req winofault.CampaignRequest) ([]byte, float64, error) {
	cfg, err := req.SystemConfig()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	sys, err := winofault.New(cfg)
	newMs := msSince(t0)
	if err != nil {
		return nil, newMs, err
	}
	if err := sys.SetProtection(req.Protection); err != nil {
		return nil, newMs, err
	}
	pts, err := sys.SweepCtx(ctx, req.BERs)
	if err != nil {
		return nil, newMs, err
	}
	out := winofault.CampaignResult{Points: pts}
	if req.Layers {
		if out.Baseline, out.Layers, err = sys.LayerSensitivitiesCtx(ctx, req.BERs[len(req.BERs)/2]); err != nil {
			return nil, newMs, err
		}
	}
	b, err := json.Marshal(out)
	return b, newMs, err
}

// fetchTrace reads a campaign's service-side trace over the HTTP API.
func (f *fleet) fetchTrace(ctx context.Context, id string) (traceSnap, error) {
	var ts traceSnap
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/campaigns/"+id+"/trace", nil)
	if err != nil {
		return ts, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ts, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ts, err
	}
	if resp.StatusCode != http.StatusOK {
		return ts, fmt.Errorf("trace %s: %s", id, resp.Status)
	}
	return ts, json.Unmarshal(body, &ts)
}

// traceSnap mirrors the JSON the trace endpoint serves.
type traceSnap struct {
	Campaign string     `json:"campaign"`
	Spans    []spanSnap `json:"spans"`
}

type spanSnap struct {
	Name     string            `json:"name"`
	StartMs  float64           `json:"startMs"`
	DurMs    float64           `json:"durMs"`
	Attrs    map[string]string `json:"attrs"`
	Children []spanSnap        `json:"children"`
}

// tracedFreshCampaigns bounds how many served campaigns the traced run
// replays unit by unit for the compute-layer figures.
const tracedFreshCampaigns = 8

// traceServe derives the serve-fleet per-layer figures: the service and
// fleet ones from the service's own campaign traces and counters, the
// compute-layer ones by replaying a sample of the plain served campaigns
// unit by unit, exactly as the sweep workloads' traced run does.
func traceServe(ctx context.Context, f *fleet, o runOpts, all []delivery, st0, st1 service.Stats, res *Result) error {
	var submit, queue, leaseWait, exec []float64
	shards, fallbacks := 0, 0
	seen := map[string]bool{}
	var plain []winofault.CampaignRequest
	for _, d := range all {
		if d.Err != nil || d.Cached || seen[d.Key] {
			continue
		}
		seen[d.Key] = true
		ts, err := f.fetchTrace(ctx, d.Key)
		if err != nil {
			res.Tally.Errors++
			continue
		}
		sub := 0.0
		for _, sp := range ts.Spans {
			switch sp.Name {
			case "validate", "cache-probe":
				sub += sp.DurMs
			case "queue-wait":
				queue = append(queue, sp.DurMs)
			case "dist-fallback":
				fallbacks++
			case "phase":
				for _, c := range sp.Children {
					if c.Name != "shard" {
						continue
					}
					shards++
					leaseWait = append(leaseWait, c.StartMs-sp.StartMs)
					if e, err := time.ParseDuration(c.Attrs["exec"]); err == nil {
						exec = append(exec, float64(e)/float64(time.Millisecond))
					}
				}
			}
		}
		submit = append(submit, sub)
		r := d.Req
		if !r.Layers && r.Protection == nil && r.Scenario == nil && len(plain) < tracedFreshCampaigns {
			plain = append(plain, r)
		}
	}
	res.setQ("service.submit_ms_p50", Median(submit))
	res.setQ("service.queue_wait_ms_p50", Median(queue))
	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	res.set("service.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), fmt.Sprintf("%d of %d probes", hits, hits+misses))
	res.set("dist.shards", float64(shards), "shard spans in the campaign traces")
	res.setQ("dist.lease_wait_ms_p50", Median(leaseWait))
	res.setQ("dist.shard_exec_ms_p50", Median(exec))
	total, empty := f.leases.total.Load(), f.leases.empty.Load()
	res.set("dist.empty_lease_ratio", ratio(float64(empty), float64(total)), fmt.Sprintf("%d of %d lease calls", empty, total))
	res.set("dist.fallbacks", float64(fallbacks), "dist-fallback spans")

	st := newLayerStats()
	tr := newTracer()
	root := tr.start("bench.run", -1)
	for _, r := range plain {
		cfg, err := r.SystemConfig()
		if err != nil {
			return err
		}
		sp := tr.start("models.build", root)
		m, err := newMirror(cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		traceCampaign(ctx, m, r.BERs, tr, root, st)
	}
	tr.end(root)
	computeLayerMetrics(st, res)
	return finishTrace(tr, o, res)
}
