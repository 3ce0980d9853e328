package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	winofault "repro"
	"repro/internal/service"
)

func quiet() *slog.Logger { return slog.New(slog.DiscardHandler) }

// tinyReq is a real but fast campaign (the same shape the service tests
// use), with the layer-sensitivity phase on so both unit spaces shard.
func tinyReq() winofault.CampaignRequest {
	return winofault.CampaignRequest{
		Model:     "vgg19",
		Engine:    "winograd",
		InputSize: 16,
		Samples:   4,
		Rounds:    1,
		BERs:      []float64{1e-9, 1e-8},
		Layers:    true,
	}
}

// localBytes runs req through the in-process service path — the reference
// every distributed execution must match byte-for-byte.
func localBytes(t *testing.T, req winofault.CampaignRequest) []byte {
	t.Helper()
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fleet stands up a coordinator (with its worker HTTP surface) and n real
// workers, and tears everything down with the test.
func fleet(t *testing.T, cfg CoordinatorConfig, n int) (*Coordinator, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet()
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		name := string(rune('a' + i))
		go func() {
			defer wg.Done()
			RunWorker(ctx, WorkerConfig{Server: ts.URL, Name: name, Workers: 1, Logger: quiet()})
		}()
	}
	if n > 0 {
		waitForWorkers(t, c, n)
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
		c.Close()
	})
	return c, ts.URL
}

func waitForWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range c.Workers() {
			if w.Live {
				live++
			}
		}
		if live >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("workers did not register in time")
}

// TestDistributedRunBitIdentical is the tentpole acceptance test: a
// campaign sharded unit-by-unit across two workers produces bytes identical
// to the local execution path — including the layer-sensitivity phase — so
// the content-addressed cache stores the same entry either way.
func TestDistributedRunBitIdentical(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)

	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: 2 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}, 2)
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]int{} // batch -> max done
	got, err := c.Run(context.Background(), key, req, func(batch, done, total int) {
		mu.Lock()
		if done > seen[batch] {
			seen[batch] = done
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed bytes differ from local:\n%s\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("progress not reported for both phases: %v", seen)
	}

	// Both workers actually executed shards (ShardUnits=1 guarantees more
	// shards than workers; the sweep alone has 2).
	stats := c.Workers()
	if len(stats) != 2 {
		t.Fatalf("fleet size %d, want 2", len(stats))
	}
	var total int64
	for _, w := range stats {
		if w.Shards == 0 {
			t.Errorf("worker %s (%q) executed no shards", w.ID, w.Name)
		}
		total += w.Shards
	}
	if total < 3 {
		t.Errorf("fleet executed %d shards, want at least 3 (2 sweep units + layers)", total)
	}
}

// TestDistributedScenarioBitIdentical: the hardware-located acceptance
// invariant — a stuck-at-PE campaign sharded across a two-worker fleet
// produces bytes identical to the local execution path. The workers rebuild
// the scenario injection from the re-canonicalized spec alone (sampled
// stuck coordinates resolve from the keyed seed), so no scenario state
// crosses the wire beyond the request itself.
func TestDistributedScenarioBitIdentical(t *testing.T) {
	req := tinyReq()
	req.Rounds = 2
	req.Layers = false
	req.Scenario = &winofault.Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 24}
	want := localBytes(t, req)

	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: 2 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}, 2)
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), key, req, func(batch, done, total int) {})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed scenario bytes differ from local:\n%s\n%s", got, want)
	}
	for _, w := range c.Workers() {
		if w.Shards == 0 {
			t.Errorf("worker %s executed no shards of the scenario campaign", w.ID)
		}
	}
}

// TestServiceDistributedCacheBytes: the full service path with a
// Distributor — submit, distribute, cache — serves bytes identical to a
// service with no fleet at all.
func TestServiceDistributedCacheBytes(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)

	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: 2 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 2}, 2)
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet(), Distributor: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed service bytes differ from local:\n%s\n%s", got, want)
	}
	// The second submission is a cache hit serving those very bytes.
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if !st.Cached {
		t.Error("second submission not served from cache")
	}
	if data, _ := j2.Wait(context.Background()); !bytes.Equal(data, want) {
		t.Error("cached bytes differ from local bytes")
	}
}

// rawWorker speaks the wire protocol by hand: a worker the test can kill at
// an exact point in the lease lifecycle.
type rawWorker struct {
	t    *testing.T
	base string
	id   string
}

func newRawWorker(t *testing.T, base, name string) *rawWorker {
	t.Helper()
	body, _ := json.Marshal(registerRequest{Name: name})
	resp, err := http.Post(base+"/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register returned %d", resp.StatusCode)
	}
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	return &rawWorker{t: t, base: base, id: reg.ID}
}

// leaseOne polls until it holds a shard task, then returns it.
func (rw *rawWorker) leaseOne(deadline time.Duration) *ShardTask {
	rw.t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := http.Post(rw.base+"/workers/"+rw.id+"/lease", "application/json", nil)
		if err != nil {
			rw.t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var task ShardTask
			err := json.NewDecoder(resp.Body).Decode(&task)
			resp.Body.Close()
			if err != nil {
				rw.t.Fatal(err)
			}
			return &task
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	rw.t.Fatal("no shard lease within deadline")
	return nil
}

// TestReLeaseAfterWorkerDeath: a worker that leases a shard and dies (no
// heartbeat, no result) must have the shard re-leased to the surviving
// fleet, and the merged result must still be byte-identical to local.
func TestReLeaseAfterWorkerDeath(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	want := localBytes(t, req)

	cfg := CoordinatorConfig{LeaseTTL: 300 * time.Millisecond, Poll: 10 * time.Millisecond, ShardUnits: 1}
	c, url := fleet(t, cfg, 0) // no real workers yet
	dead := newRawWorker(t, url, "doomed")

	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	type runOut struct {
		data []byte
		err  error
	}
	out := make(chan runOut, 1)
	go func() {
		data, err := c.Run(context.Background(), key, req, func(int, int, int) {})
		out <- runOut{data, err}
	}()

	// The doomed worker takes one shard and vanishes without reporting.
	task := dead.leaseOne(5 * time.Second)
	if task.Key != key {
		t.Fatalf("leased task key %.12s, want %.12s", task.Key, key)
	}

	// A healthy worker joins and must end up executing everything —
	// including the dead worker's shard once its lease expires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go RunWorker(ctx, WorkerConfig{Server: url, Name: "survivor", Workers: 1, Logger: quiet()})

	select {
	case r := <-out:
		if r.err != nil {
			t.Fatalf("Run failed: %v", r.err)
		}
		if !bytes.Equal(r.data, want) {
			t.Errorf("re-leased run bytes differ from local:\n%s\n%s", r.data, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not complete after worker death")
	}
}

// TestNoWorkersRegistered: with an empty fleet, Run reports ErrNoWorkers
// immediately — the service's cue to execute locally.
func TestNoWorkersRegistered(t *testing.T) {
	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: time.Second}, 0)
	req := tinyReq()
	key, _ := service.Key(req)
	if _, err := c.Run(context.Background(), key, req, func(int, int, int) {}); !errors.Is(err, service.ErrNoWorkers) {
		t.Fatalf("Run with no workers returned %v, want ErrNoWorkers", err)
	}
}

// TestFleetDiesMidCampaign: when every worker goes silent with shards
// outstanding, the run must fail with ErrNoWorkers (triggering local
// fallback) instead of hanging forever.
func TestFleetDiesMidCampaign(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	cfg := CoordinatorConfig{LeaseTTL: 200 * time.Millisecond, Poll: 10 * time.Millisecond, ShardUnits: 1}
	c, url := fleet(t, cfg, 0)
	dead := newRawWorker(t, url, "last-of-its-kind")

	key, _ := service.Key(req)
	out := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), key, req, func(int, int, int) {})
		out <- err
	}()
	dead.leaseOne(5 * time.Second) // holds a shard, then goes silent forever

	select {
	case err := <-out:
		if !errors.Is(err, service.ErrNoWorkers) {
			t.Fatalf("stranded run returned %v, want ErrNoWorkers", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stranded run did not fail")
	}
}

// TestShardErrorRetriesThenFails: explicit shard errors are retried up to
// MaxAttempts, then fail the run with the shard's error.
func TestShardErrorRetriesThenFails(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	cfg := CoordinatorConfig{LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 4, MaxAttempts: 2}
	c, url := fleet(t, cfg, 0)
	rw := newRawWorker(t, url, "saboteur")

	key, _ := service.Key(req)
	out := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), key, req, func(int, int, int) {})
		out <- err
	}()
	for i := 0; i < 2; i++ {
		task := rw.leaseOne(5 * time.Second)
		body, _ := json.Marshal(ShardResult{Task: task.ID, Error: "synthetic shard failure"})
		resp, err := http.Post(url+"/workers/"+rw.id+"/result", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	select {
	case err := <-out:
		if err == nil || !strings.Contains(err.Error(), "synthetic shard failure") {
			t.Fatalf("run returned %v, want the shard failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("failing shards did not fail the run")
	}
}

// TestOutOfRangeCountsRejected: a worker posting the right number of counts
// with values outside [0, Samples] is treated like a failed shard — retried,
// then failed after MaxAttempts — so the bad counts never reach the journal
// and the service's local fallback caches the correct bytes.
func TestOutOfRangeCountsRejected(t *testing.T) {
	req := tinyReq()
	req.Layers = false // 2 units, one shard
	want := localBytes(t, req)

	dir := t.TempDir()
	journal := filepath.Join(dir, "journal")
	cfg := CoordinatorConfig{LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 4,
		MaxAttempts: 2, JournalPath: journal}
	c, url := fleet(t, cfg, 0)
	rw := newRawWorker(t, url, "miscounter")
	cache := filepath.Join(dir, "cache")
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet(), Distributor: c, CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, counts := range [][]int{{-1, 2}, {2, req.Samples + 1}} {
		task := rw.leaseOne(5 * time.Second)
		body, _ := json.Marshal(ShardResult{Task: task.ID, Counts: counts})
		resp, err := http.Post(url+"/workers/"+rw.id+"/result", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served bytes differ from local:\n%s\n%s", got, want)
	}
	key, _ := service.Key(req)
	cached, err := os.ReadFile(filepath.Join(cache, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, want) {
		t.Errorf("cached bytes differ from local:\n%s\n%s", cached, want)
	}
	records, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(records, []byte(`"t":"shard"`)) {
		t.Errorf("out-of-range counts were journaled:\n%s", records)
	}
}

// TestWorkerRefusesKeyMismatch: the worker re-canonicalizes the spec and
// refuses a task whose advertised key disagrees — the coordinator sees an
// explicit shard error, not silent wrong-campaign counts.
func TestWorkerRefusesKeyMismatch(t *testing.T) {
	w := &fleetWorker{cfg: WorkerConfig{Logger: quiet()}}
	res := w.execute(context.Background(), ShardTask{
		ID:  "t1",
		Key: strings.Repeat("0", 64),
		Req: tinyReq(),
		Lo:  0, Hi: 1,
	})
	if res.Error == "" || !strings.Contains(res.Error, "key mismatch") {
		t.Fatalf("mismatched key produced %+v, want a key-mismatch error", res)
	}
	res = w.execute(context.Background(), ShardTask{ID: "t2", Key: "junk", Req: winofault.CampaignRequest{}})
	if res.Error == "" {
		t.Fatal("invalid spec did not error")
	}
}

// TestDrainRefusesRegistration: a draining coordinator turns away new
// fleet; existing workers keep leasing so in-flight campaigns finish.
func TestDrainRefusesRegistration(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Second, Logger: quiet()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	rw := newRawWorker(t, ts.URL, "early-bird")
	c.BeginDrain()

	body, _ := json.Marshal(registerRequest{Name: "latecomer"})
	resp, err := http.Post(ts.URL+"/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("register while draining returned %d, want 503", resp.StatusCode)
	}
	// The registered worker still heartbeats and polls fine.
	hb, err := http.Post(ts.URL+"/workers/"+rw.id+"/heartbeat", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	hb.Body.Close()
	if hb.StatusCode != http.StatusNoContent {
		t.Errorf("heartbeat while draining returned %d, want 204", hb.StatusCode)
	}
	lease, err := http.Post(ts.URL+"/workers/"+rw.id+"/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	lease.Body.Close()
	if lease.StatusCode != http.StatusNoContent {
		t.Errorf("idle lease while draining returned %d, want 204", lease.StatusCode)
	}
}

// TestRunCanceled: canceling the campaign context unblocks Run promptly and
// strips its shards so late results are ignored.
func TestRunCanceled(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	cfg := CoordinatorConfig{LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}
	c, url := fleet(t, cfg, 0)
	rw := newRawWorker(t, url, "bystander")

	key, _ := service.Key(req)
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, key, req, func(int, int, int) {})
		out <- err
	}()
	task := rw.leaseOne(5 * time.Second)
	cancel()
	select {
	case err := <-out:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return")
	}
	// A late result for the canceled run is dropped without fuss.
	body, _ := json.Marshal(ShardResult{Task: task.ID, Counts: []int{4}})
	resp, err := http.Post(url+"/workers/"+rw.id+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("late result returned %d, want 204", resp.StatusCode)
	}
}
