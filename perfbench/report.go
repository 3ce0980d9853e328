package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Host is the stamp every result carries, so that two results taken on
// different machines or toolchains are never compared silently.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two stamps describe the same measurement
// host. The commit is deliberately not part of it: comparing commits on one
// host is the point of the benchmark.
func (h Host) sameMachine(o Host) bool {
	return h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.CPU == o.CPU && h.Go == o.Go
}

func stampHost() Host {
	return Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the measured source: the VCS revision stamped into the
// binary when the build had one, otherwise a digest of the Go sources and
// module files under the working directory (a benchmark checkout need not
// be a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// historyEntry is one line of the result history the cross-host flag reads.
type historyEntry struct {
	Host     Host               `json:"host"`
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Seed     uint64             `json:"seed"`
	Values   map[string]float64 `json:"values"`
}

// previousHost returns the host of the latest recorded run of the same
// workload and mode, if any.
func previousHost(path, workload string, traced bool) (Host, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Host{}, false
	}
	var last historyEntry
	found := false
	for _, line := range strings.Split(string(b), "\n") {
		var e historyEntry
		if json.Unmarshal([]byte(line), &e) == nil && e.Workload == workload && e.Traced == traced {
			last, found = e, true
		}
	}
	return last.Host, found
}

// report prints the human summary to log and the report and result lines
// to out, and appends the run to the result history.
func report(out, log io.Writer, host Host, o runOpts, res *Result) {
	histPath := filepath.Join(o.OutDir, "history.jsonl")
	prev, hadPrev := previousHost(histPath, res.Workload, o.Trace)
	crossHost := hadPrev && !prev.sameMachine(host)

	fmt.Fprintf(log, "perfbench %s seed=%d traced=%v on %d cpu (GOMAXPROCS %d) %s, %s, %s\n",
		res.Workload, o.Seed, o.Trace, host.NProc, host.GOMAXPROCS, host.CPU, host.Go, host.Commit)
	if crossHost {
		fmt.Fprintf(log, "  WARNING: host differs from the previous %s run (%+v); do not compare their figures\n", res.Workload, prev)
	}
	reported := map[string]bool{}
	for _, m := range metricsFor(o.Trace) {
		reported[m.Name] = true
		fmt.Fprintf(log, "  %-30s %14.6g %-7s %s\n", m.Name, res.Values[m.Name], m.Unit, res.Notes[m.Name])
	}
	extra := map[string]float64{}
	var names []string
	for name := range res.Values {
		if !reported[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		extra[name] = res.Values[name]
		fmt.Fprintf(log, "  %-30s %14.6g %s (not in this run's metric set)\n", name, res.Values[name], res.Notes[name])
	}
	t := res.Tally
	fmt.Fprintf(log, "  failed_frac %.4g (%d of %d: %d errors, %d refusals, %d mismatches)\n",
		t.FailedFrac(), t.Failed(), t.Attempted, t.Errors, t.Refusals, t.Mismatches)
	for name, ok := range res.Checks {
		fmt.Fprintf(log, "  check %-28s %v\n", name, ok)
	}

	rep, _ := json.Marshal(map[string]any{
		"report": res.Workload, "seed": o.Seed, "traced": o.Trace, "host": host, "cross_host": crossHost,
		"failed_frac": t.FailedFrac(), "tally": t, "checks": res.Checks, "notes": res.Notes, "extra": extra,
	})
	fmt.Fprintln(out, string(rep))
	line, _ := json.Marshal(resultLine(res, o.Trace, ""))
	fmt.Fprintln(out, string(line))

	e, _ := json.Marshal(historyEntry{Host: host, Workload: res.Workload, Traced: o.Trace, Seed: o.Seed, Values: res.Values})
	if f, err := os.OpenFile(histPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		fmt.Fprintln(f, string(e))
		if err := f.Close(); err != nil {
			fmt.Fprintln(log, "perfbench: history:", err)
		}
	}
}
