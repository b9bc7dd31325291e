// Command lvpbench is the repository benchmark. It drives the simulator
// and its services from outside — through the public functions of the
// internal packages and the daemons' HTTP API — on one of four
// workloads, checks the simulated outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) of the same workload reports the per-layer metrics and
// writes its spans as a Chrome trace. See provenance.json for why each
// workload exists and which layer metric should move which end-to-end
// number.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/trace"
)

// defaultSeed is the seed the recorded stats digests belong to.
const defaultSeed = 1

//go:embed provenance.json
var provenanceJSON []byte

// provenance is the part of provenance.json the program reads.
type provenance struct {
	StatsDigest map[string]string `json:"stats_digest"`
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and what it has measured so far.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    float64 // instruction budgets and counts, 1 = full size
	work     string  // temporary directory of this run, removed at exit
	expect   string  // expected stats digest ("" = the recorded one)
	par      int     // load goroutines and connections: GOMAXPROCS, nproc by default
	rng      *rand.Rand
	out      io.Writer // report and result
	errOut   io.Writer // failed checks

	// rec records the benchmark's own spans in a traced run; nil
	// otherwise, and in the rounds a traced run leaves uninstrumented.
	rec *otrace.Recorder

	mu        sync.Mutex
	attempted int64
	failed    int64
	e2e       map[string]metric
	layer     map[string]metric
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run runs the benchmark with command-line args, printing the report
// and the result line to stdout and diagnostics to stderr. It returns
// the process exit code: 0 whenever a result was printed (failed output
// checks are counted in it, not fatal), 1 when the workload could not
// run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lvpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sim-vp | sim-base | serve-jobs | cluster-sweep")
	seed := fs.Uint64("seed", defaultSeed, "picks the workload sample and the job or sweep mix")
	seconds := fs.Float64("seconds", 30, "length of the timed region")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	scale := fs.Float64("scale", 1, "size multiplier for instruction budgets and counts (the self-test runs tiny sizes)")
	work := fs.String("work", ".bench_build/work", "directory for the run's temporary files and traced runs' span files")
	expect := fs.String("expect-digest", "", "expected stats digest (default: the one recorded for the default seed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "lvpbench: "+format+"\n", args...)
		return 1
	}
	if *traced != 0 && *traced != 1 {
		return fail("-trace must be 0 or 1")
	}
	if *seconds <= 0 || *scale <= 0 {
		return fail("-seconds and -scale must be positive")
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fail("unknown -workload %q (want sim-vp, sim-base, serve-jobs or cluster-sweep)", *workload)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		scale:    *scale,
		expect:   *expect,
		par:      runtime.GOMAXPROCS(0),
		rng:      rand.New(rand.NewSource(int64(*seed))),
		out:      stdout,
		errOut:   stderr,
		e2e:      make(map[string]metric),
		layer:    make(map[string]metric),
	}
	// Library loggers (the artifact stores' warnings) stay quiet; the
	// daemons get their own discard loggers.
	slog.SetDefault(quietLogger())
	if b.traced {
		b.rec = otrace.NewRecorder("lvpbench", 1<<16)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail("%v", err)
	}
	dir, err := os.MkdirTemp(*work, b.workload+"-")
	if err != nil {
		return fail("work dir: %v", err)
	}
	b.work = dir
	defer os.RemoveAll(dir)

	if err := drive(b); err != nil {
		return fail("%s: %v", b.workload, err)
	}
	b.e2e["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	if b.traced {
		out := filepath.Join(*work, fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed))
		if err := b.writeSpans(out); err != nil {
			return fail("writing spans: %v", err)
		}
	}
	if err := b.finish(); err != nil {
		return fail("%v", err)
	}
	return 0
}

// workloads maps -workload names to the functions that run them.
var workloads = map[string]func(*bench) error{
	"sim-vp":        func(b *bench) error { return b.runSim(true) },
	"sim-base":      func(b *bench) error { return b.runSim(false) },
	"serve-jobs":    (*bench).runServe,
	"cluster-sweep": (*bench).runSweep,
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// scaled applies the -scale size multiplier to a count, keeping it at
// least min.
func (b *bench) scaled(n, min int) int {
	v := int(math.Round(float64(n) * b.scale))
	if v < min {
		v = min
	}
	return v
}

// scaledInsts applies -scale to an instruction budget, rounded to a
// thousand instructions.
func (b *bench) scaledInsts(n uint64) uint64 {
	v := uint64(math.Round(float64(n)*b.scale/1000)) * 1000
	if v < 2000 {
		v = 2000
	}
	return v
}

// check records one checked operation, which failed when ok is false.
// A failure is reported on stderr and counted in the result, never
// fatal.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.errOut, "check failed: "+format+"\n", args...)
	}
	return ok
}

// setE2E sets an end-to-end metric (untraced runs report these).
func (b *bench) setE2E(name, unit string, v float64) { b.e2e[name] = metric{v, unit} }

// setLayer sets a per-layer metric (traced runs report these).
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

// report prints one human-readable line before the result.
func (b *bench) report(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// checkDigest prints the stats digest and compares it with the one
// recorded for the default seed (or -expect-digest).
func (b *bench) checkDigest(digest string) {
	b.report("stats_digest %s", digest)
	want := b.expect
	if want == "" && b.seed == defaultSeed && b.scale == 1 {
		var p provenance
		if err := json.Unmarshal(provenanceJSON, &p); err != nil {
			b.check(false, "provenance.json: %v", err)
			return
		}
		want = p.StatsDigest[b.workload]
	}
	if want != "" {
		b.check(digest == want, "stats digest %s, want %s", digest, want)
	}
}

// digestOf hashes the JSON encoding of v.
func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the digested values are plain data
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// finish prints the metrics table and the result line.
func (b *bench) finish() error {
	ms := b.e2e
	if b.traced {
		ms = b.layer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.report("metric %-34s %14.6g %s", n, ms[n].Value, ms[n].Unit)
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	b.report("%s", line)
	return nil
}

// span starts a benchmark span when tracing; the returned context
// parents child spans. finish is a no-op in untraced runs.
func (b *bench) span(ctx context.Context, name string, attrs ...otrace.Attr) (context.Context, func()) {
	if b.rec == nil {
		return ctx, func() {}
	}
	ctx, sp := b.rec.StartSpan(ctx, name, attrs...)
	return ctx, sp.Finish
}

// tracedAcc returns acc in a traced run and nil (no instrumentation)
// otherwise.
func (b *bench) tracedAcc(acc *layerAcc) *layerAcc {
	if b.rec == nil {
		return nil
	}
	return acc
}

// writeSpans writes the run's spans once, as a Chrome trace, and prints
// each span name's count, total and self time (span time minus the
// time its child spans cover).
func (b *bench) writeSpans(path string) error {
	spans := b.rec.Spans()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := otrace.WriteChrome(bw, otrace.ChromeEvents(b.rec.Service(), spans)); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	children := make(map[string][]*otrace.Span)
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	by := make(map[string]*agg)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End.Sub(s.Start)
		a.n++
		a.total += d
		a.self += d - covered(s, children[s.SpanID])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		b.report("span %-28s n=%-7d total_ms=%-12.3f self_ms=%.3f", n, a.n,
			a.total.Seconds()*1e3, a.self.Seconds()*1e3)
	}
	b.report("spans written to %s (%d spans)", path, len(spans))
	return nil
}

// covered returns how much of s's interval its children cover, counting
// overlapping children once.
func covered(s *otrace.Span, kids []*otrace.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, z time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, z := k.Start, k.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if z.After(s.End) {
			z = s.End
		}
		if z.After(a) {
			ivs = append(ivs, iv{a, z})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.z) {
			if i > 0 {
				total += cur.z.Sub(cur.a)
			}
			cur = v
		} else if v.z.After(cur.z) {
			cur.z = v.z
		}
	}
	return total + cur.z.Sub(cur.a)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// midMean returns the mean of the values between the first and the
// third quartile of xs (0 for none): an average that one outlier does
// not move.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// heapInUse returns the live heap after full collections. Two of them:
// the first only moves sync.Pool contents (pooled pipelines) to the
// pools' victim caches, the second frees them.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stratifiedSample picks perProfile workloads from each behaviour
// profile, seeded, in a stable order.
func (b *bench) stratifiedSample(perProfile int) []string {
	byProfile := make(map[string][]string)
	var profiles []string
	for _, w := range trace.Workloads() {
		if _, ok := byProfile[w.Profile]; !ok {
			profiles = append(profiles, w.Profile)
		}
		byProfile[w.Profile] = append(byProfile[w.Profile], w.Name)
	}
	sort.Strings(profiles)
	var out []string
	for _, p := range profiles {
		names := byProfile[p]
		for i, j := range b.rng.Perm(len(names)) {
			if i == perProfile {
				break
			}
			out = append(out, names[j])
		}
	}
	return out
}

// sumMetric adds every series of the named metric (keys as scrape
// makes them) whose labels contain all of the given label pairs (e.g.
// `source="disk"`).
func sumMetric(ms map[string]float64, name string, labels ...string) float64 {
	var total float64
	for k, v := range ms {
		base, lbl := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, lbl = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}
