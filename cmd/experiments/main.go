// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5
//	experiments -run all -insts 200000
//	experiments -run tablevi -sample 12
//	experiments -spec sim.json            # run a custom spec over the pool
//	experiments -spec sim.json -dump-spec # print its canonical form
//
// Every run is deterministic for a given -seed. Heavy sweeps (Table VI,
// Figures 3, 5, 7-10) honour -sample to restrict the workload pool to a
// stratified subset; -sample 0 uses all 85 workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/expt"
	"repro/internal/prof"
	"repro/internal/spec"
	"repro/internal/trace"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment ID (see -list), comma list, or 'all'")
		list     = flag.Bool("list", false, "list experiments")
		insts    = flag.Uint64("insts", 100_000, "instructions simulated per workload")
		seed     = flag.Uint64("seed", 0xC0FFEE, "simulation seed")
		sample   = flag.Int("sample", 16, "workload subsample for heavy sweeps (0 = all)")
		specFile = flag.String("spec", "", "run this spec JSON file over the pool instead of a named experiment")
		dumpSpec = flag.Bool("dump-spec", false, "print the resolved canonical spec as JSON and exit")
		parallel = flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *specFile != "" || *dumpSpec {
		runSpec(*specFile, *dumpSpec, *insts, *seed, *sample, *parallel)
		return
	}

	if *list || *run == "" {
		fmt.Println("experiments — regenerate the paper's tables and figures")
		for _, l := range expt.Describe() {
			fmt.Println("  " + l)
		}
		fmt.Println("  all      run everything")
		return
	}

	var ids []string
	if *run == "all" {
		for _, e := range expt.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	full, err := expt.NewContextErr(expt.Options{Insts: *insts, Seed: *seed, Parallel: *parallel})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sampled := full
	if *sample > 0 {
		sampled, err = expt.NewContextErr(expt.Options{
			Insts: *insts, Seed: *seed, Parallel: *parallel,
			Workloads: sampleWorkloads(*sample),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	for _, id := range ids {
		e, ok := expt.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		ctx := full
		if e.Heavy && *sample > 0 {
			ctx = sampled
		}
		start := time.Now()
		res := e.Run(ctx)
		fmt.Print(res)
		fmt.Printf("(%d workloads × %d instructions, %.1fs)\n\n",
			len(ctx.Pool()), ctx.Insts(), time.Since(start).Seconds())
	}
}

// runSpec handles -spec/-dump-spec: resolve a declarative simulation
// spec (internal/spec) and either print its canonical form or run it
// over the (possibly sampled) workload pool, reporting per-workload
// speedups and the paper-convention aggregate.
func runSpec(specFile string, dump bool, insts, seed uint64, sample, parallel int) {
	var sim spec.Sim
	if specFile != "" {
		b, err := os.ReadFile(specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := json.Unmarshal(b, &sim); err != nil {
			fmt.Fprintf(os.Stderr, "parsing %s: %v\n", specFile, err)
			os.Exit(2)
		}
	}
	// The pool supplies the workloads; the context supplies insts/seed.
	sim.Workload = spec.WorkloadSpec{}
	sim.Run = spec.RunSpec{}
	sim.Normalize(spec.Defaults{})
	if err := sim.ValidateConfig(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if dump {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sim); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "canonical hash: %s\n", sim.CanonicalHash())
		return
	}

	opts := expt.Options{Insts: insts, Seed: seed, Parallel: parallel}
	if sample > 0 {
		opts.Workloads = sampleWorkloads(sample)
	}
	ctx, err := expt.NewContextErr(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	label := string(sim.Predictor.Family)
	start := time.Now()
	pairs := ctx.Runs(sim)
	for _, p := range pairs {
		fmt.Printf("  %-14s speedup=%+7.2f%%  coverage=%5.1f%%  accuracy=%.4f\n",
			p.Workload, p.Speedup(), p.Run.Coverage(), p.Run.Accuracy())
	}
	agg := expt.Summarize(pairs)
	fmt.Printf("%s (hash %s): speedup=%+.2f%% coverage=%.1f%% accuracy=%.4f\n",
		label, sim.CanonicalHash(), agg.Speedup, agg.Coverage, agg.Accuracy)
	fmt.Printf("(%d workloads × %d instructions, %.1fs)\n",
		len(ctx.Pool()), ctx.Insts(), time.Since(start).Seconds())
}

// sampleWorkloads picks a stratified subset: round-robin across the
// sorted pool so every behaviour profile stays represented.
func sampleWorkloads(n int) []string {
	all := trace.Names()
	if n >= len(all) {
		return all
	}
	out := make([]string, 0, n)
	step := float64(len(all)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}
