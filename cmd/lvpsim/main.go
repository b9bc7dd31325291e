// Command lvpsim simulates one workload on a configurable core with a
// selectable load value predictor and prints the run's metrics.
//
// The simulation is described by a declarative spec (internal/spec):
// flags compile into it, -spec loads one from JSON (full machine and
// predictor control), -preset starts from a named configuration, and
// -dump-spec prints the resolved spec without simulating.
//
// Usage:
//
//	lvpsim -workload gcc2k -predictor composite -entries 1024
//	lvpsim -workload mcf -predictor lvp -entries 4096 -insts 500000
//	lvpsim -workload v8 -predictor eves -budget 32
//	lvpsim -spec sim.json              # run a saved spec
//	lvpsim -preset best-9.6KB -workload gcc2k
//	lvpsim -workload gcc2k -dump-spec  # print the canonical spec JSON
//	lvpsim -list                       # list workload names
//
// Multi-context (SMT) simulation replicates the pipeline's context
// state while sharing its predictors, caches, and TLBs (DESIGN.md
// §14): -contexts N runs N independently-seeded streams of the
// workload, and -workloads assigns one workload per context:
//
//	lvpsim -contexts 4 -workload gcc2k            # 4 salted gcc2k streams
//	lvpsim -workloads gcc2k,mcf -predictor best   # 2-context mix
//	lvpsim -preset smt4 -workload gcc2k           # the 4-context preset
//
// Predictors: none, lvp, sap, cvp, cap, composite, best (composite +
// PC-AM + fusion), eves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/expt"
	otrace "repro/internal/obs/trace"
	"repro/internal/prof"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracein"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// buildSpec resolves flags (and -spec/-preset) into the canonical
// simulation spec plus the predictor label responses echo. Explicitly
// set flags override fields of a loaded spec or preset.
func buildSpec(specFile, preset string, fs *flag.FlagSet,
	workload, workloads *string, contexts *int, predictor *string,
	entries, budget *int, am *string, insts, seed *uint64) (spec.Sim, string) {

	var sim spec.Sim
	switch {
	case specFile != "":
		b, err := os.ReadFile(specFile)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(b, &sim); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", specFile, err))
		}
	case preset != "":
		p, ok := spec.Preset(preset)
		if !ok {
			fatal(fmt.Errorf("unknown preset %q (one of %v)", preset, spec.PresetNames()))
		}
		sim = p
	}

	// Flags the user actually set win over the loaded spec; with no
	// -spec/-preset the flag defaults describe the whole simulation.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fromFlags := specFile == "" && preset == ""
	override := func(name string) bool { return fromFlags || set[name] }

	if override("workloads") && *workloads != "" {
		sim.Workload.Names = nil
		for _, n := range strings.Split(*workloads, ",") {
			sim.Workload.Names = append(sim.Workload.Names, strings.TrimSpace(n))
		}
		// The mix's lead workload is the spec's Name; an explicit
		// -workload must agree (Validate reports the disagreement).
		sim.Workload.Name = sim.Workload.Names[0]
	}
	if set["workload"] || (fromFlags && sim.Workload.Names == nil) || sim.Workload.Name == "" {
		sim.Workload.Name = *workload
	}
	if set["contexts"] || (fromFlags && *contexts > 0) {
		sim.Machine.Contexts = *contexts
	}
	// A -workloads mix without an explicit context count means one
	// context per listed workload.
	if len(sim.Workload.Names) > 1 && !set["contexts"] && sim.Machine.Contexts == 0 {
		sim.Machine.Contexts = len(sim.Workload.Names)
	}
	if override("insts") || sim.Workload.Insts == 0 {
		sim.Workload.Insts = *insts
	}
	if override("seed") || sim.Run.Seed == 0 {
		sim.Run.Seed = *seed
	}
	label := string(sim.Predictor.Family)
	if fromFlags || set["predictor"] {
		sim.Predictor = spec.PredictorSpec{
			Family:     spec.Family(*predictor),
			EntriesPer: *entries,
		}
		switch sim.Predictor.Family {
		case spec.FamilyComposite, spec.FamilyBest:
			sim.Predictor.AM = spec.AMMode(*am)
		case spec.FamilyEVES:
			kb := *budget
			if kb == 0 {
				kb = -1 // this CLI has always spelled "infinite" as 0
			}
			sim.Predictor.BudgetKB = kb
		}
		label = *predictor
	}

	// A zero budget or seed means this CLI's default, as it does lvpd's.
	sim.Normalize(spec.Defaults{Insts: server.DefaultInsts, Seed: server.DefaultSeed})
	if label == "" {
		label = string(sim.Predictor.Family)
	}
	return sim, label
}

// outcome is one lvpsim run: the baseline, the configured run (the
// baseline itself under the none family), the composite behind the
// engine, if any, and the RunResult lvpd would serve for the spec.
type outcome struct {
	base, run expt.SMTResult
	comp      *core.Composite
	res       server.RunResult
}

// simulate runs sim's baseline and configured run through the expt
// calls lvpd and the figures make, so a spec gives the same result on
// every surface; label is the predictor the result echoes, and
// phaseSpan brackets each phase.
func simulate(sim spec.Sim, label string, phaseSpan func(string) func()) outcome {
	ectx := expt.NewContext(expt.Options{Insts: sim.Workload.Insts, Seed: sim.Run.Seed})
	ctx := context.Background()
	var o outcome
	end := phaseSpan("baseline")
	o.base, _ = ectx.Baseline(ctx, sim)
	end()
	o.run = o.base
	if sim.Predictor.Family != spec.FamilyNone {
		end = phaseSpan("run")
		o.run, o.comp = ectx.Simulate(ctx, sim)
		end()
	}
	o.res = server.NewSimResult(sim, label, o.run, o.base, o.comp)
	return o
}

// printText prints o as text: the baseline, then the configured run
// with its flushes, with one line per context on a multi-context
// machine. details adds a single-context composite's per-component
// statistics.
func printText(o outcome, sim spec.Sim, label string, details bool) {
	base, run := o.base.Merged, o.run.Merged
	if len(o.base.Per) == 0 {
		fmt.Printf("baseline:  IPC=%.3f (%d instructions, %d cycles, %d loads)\n",
			base.IPC(), base.Instructions, base.Cycles, base.Loads)
	} else {
		fmt.Printf("baseline:  IPC=%.3f (%d contexts, %d instructions, %d cycles)\n",
			base.IPC(), len(o.base.Per), base.Instructions, base.Cycles)
		for i, r := range o.base.Per {
			fmt.Printf("   ctx%d %-12s IPC=%.3f\n", i, r.Workload+":", r.IPC())
		}
	}
	if sim.Predictor.Family == spec.FamilyNone {
		return
	}
	fmt.Printf("%-9s  IPC=%.3f  speedup=%+.2f%%  coverage=%.1f%%  accuracy=%.4f\n",
		label+":", run.IPC(), stats.Speedup(run, base), run.Coverage(), run.Accuracy())
	for i, r := range o.run.Per {
		fmt.Printf("   ctx%d %-12s IPC=%.3f  speedup=%+.2f%%  coverage=%.1f%%  accuracy=%.4f\n",
			i, r.Workload+":", r.IPC(), stats.Speedup(r, o.base.Per[i]), r.Coverage(), r.Accuracy())
	}
	fmt.Printf("           flushes: value=%d branch=%d memorder=%d\n",
		run.VPFlushes, run.BranchFlushes, run.MemOrderFlushes)

	if !details || o.comp == nil || len(o.run.Per) > 0 {
		return
	}
	st := o.comp.Stats()
	fmt.Printf("           predicted loads: %d of %d probes; multi-confident: %d\n",
		st.PredictedLoads, st.Probes,
		st.ConfidentHistogram[2]+st.ConfidentHistogram[3]+st.ConfidentHistogram[4])
	for c := core.Component(0); c < core.NumComponents; c++ {
		if o.comp.Component(c) == nil {
			continue
		}
		fmt.Printf("           %v: used=%d correct=%d incorrect=%d\n",
			c, st.UsedBy[c], st.CorrectBy[c], st.IncorrectBy[c])
	}
	fmt.Printf("           storage: %.2fKB\n", o.comp.StorageKB())
}

func main() {
	var (
		workload  = flag.String("workload", "gcc2k", "workload name")
		workloads = flag.String("workloads", "", "comma-separated per-context workload mix (e.g. gcc2k,mcf); implies -contexts len(mix)")
		contexts  = flag.Int("contexts", 0, "hardware contexts to simulate (0/1 = single; >1 shares predictors, caches, and TLBs across salted streams)")
		listNames = flag.Bool("list", false, "list workload names and exit")
		predictor = flag.String("predictor", "composite", "none|lvp|sap|cvp|cap|composite|best|eves")
		entries   = flag.Int("entries", 1024, "table entries per component")
		budget    = flag.Int("budget", 32, "EVES budget in KB (0 = infinite)")
		insts     = flag.Uint64("insts", server.DefaultInsts, "instructions to simulate (0 = the default)")
		seed      = flag.Uint64("seed", server.DefaultSeed, "simulation seed (0 = the default)")
		am        = flag.String("am", "pc", "accuracy monitor for composite: none|m|pc|pcinf")
		specFile  = flag.String("spec", "", "load the simulation spec from this JSON file (flags you set override it)")
		preset    = flag.String("preset", "", "start from a named spec preset (see internal/spec)")
		dumpSpec  = flag.Bool("dump-spec", false, "print the resolved canonical spec as JSON and exit")
		details   = flag.Bool("details", false, "print per-component composite statistics")
		traceFile = flag.String("trace", "", "simulate an external CVP-1-style trace file (LVPX): convert, register as ext:<hash>, run")
		traceInfo = flag.String("trace-info", "", "print an external trace file's header and conversion report, then exit")
		jsonOut   = flag.Bool("json", false, "emit the run result as one JSON object on stdout")
		traceOut  = flag.String("trace-out", "", "write this run's spans as Chrome trace-event JSON to this file (view in Perfetto)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
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

	if *listNames {
		for _, n := range trace.Names() {
			fmt.Println(n)
		}
		return
	}

	if *traceInfo != "" {
		data, err := os.ReadFile(*traceInfo)
		if err != nil {
			fatal(err)
		}
		name, _, info, err := tracein.ConvertBytes(data, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload:           %s\n", name)
		fmt.Printf("format version:     %d\n", info.Header.Version)
		fmt.Printf("instructions:       %d\n", info.Insts)
		fmt.Printf("fill seed:          %#x\n", info.Header.Seed)
		fmt.Printf("payload checksum:   %08x\n", info.Header.Checksum)
		classes := []string{"alu", "load", "store", "condBranch", "uncondDirect", "uncondIndirect", "fp", "slowAlu"}
		for c, n := range info.Classes {
			if n > 0 {
				fmt.Printf("  %-16s  %d\n", classes[c], n)
			}
		}
		fmt.Printf("pre-image words:    %d (backfilled %d bytes)\n", info.FootprintWords, info.BackfilledBytes)
		if info.InconsistentLoads > 0 {
			fmt.Printf("inconsistent loads: %d\n", info.InconsistentLoads)
		}
		if info.DroppedSrcRegs > 0 {
			fmt.Printf("dropped src regs:   %d\n", info.DroppedSrcRegs)
		}
		return
	}

	sim, label := buildSpec(*specFile, *preset, flag.CommandLine,
		workload, workloads, contexts, predictor, entries, budget, am, insts, seed)
	if *traceFile != "" {
		// An external trace becomes a first-class workload: convert,
		// register under its content address, and point the spec at it.
		// Validation then runs the normal named-workload path.
		data, err := os.ReadFile(*traceFile)
		if err != nil {
			fatal(err)
		}
		extName, rep, info, err := tracein.ConvertBytes(data, 0)
		if err != nil {
			fatal(err)
		}
		if _, err := trace.RegisterExternal(extName, rep, true); err != nil {
			fatal(err)
		}
		sim.Workload.Name = extName
		sim.Workload.Names = nil
		if sim.Workload.Insts > info.Insts {
			sim.Workload.Insts = info.Insts
		}
		fmt.Fprintf(os.Stderr, "trace %s: %d instructions registered as %s\n", *traceFile, info.Insts, extName)
	}
	if err := sim.Validate(); err != nil {
		fatal(err)
	}

	if *dumpSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sim); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "canonical hash: %s\n", sim.CanonicalHash())
		return
	}

	// With -trace-out the CLI records the same span shapes the daemon
	// does (a root with baseline/run children) and writes them as Chrome
	// trace-event JSON on the way out.
	var tracer *otrace.Recorder
	rootCtx := context.Background()
	if *traceOut != "" {
		tracer = otrace.NewRecorder("lvpsim", 0)
		var root *otrace.Span
		rootCtx, root = tracer.StartSpan(rootCtx, "lvpsim",
			otrace.String("workload", sim.Workload.Name), otrace.String("predictor", label))
		defer func() {
			root.Finish()
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			err = otrace.WriteChrome(f, otrace.ChromeEvents(tracer.Service(), tracer.TraceSpans(root.TraceID)))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Fprintf(os.Stderr, "trace written to %s (open in Perfetto / chrome://tracing)\n", *traceOut)
		}()
	}
	// phaseSpan opens a child span under the root, or a no-op without
	// -trace-out; the returned func finishes it.
	phaseSpan := func(phase string) func() {
		if tracer == nil {
			return func() {}
		}
		_, s := tracer.StartSpan(rootCtx, phase)
		return s.Finish
	}

	o := simulate(sim, label, phaseSpan)
	if !*jsonOut {
		printText(o, sim, label, *details)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(o.res); err != nil {
		fatal(err)
	}
}
