// Command pondreport prints the paper's evaluation: the figures,
// findings and ablations of the experiment registry, every one by
// default or those -figures names, in the order given. They are the
// definitions pond.RunExperiments runs, so for the same scale, seed and
// names stdout matches its outputs byte for byte. -sweep evaluates a
// scenario matrix across scales and policies instead.
//
// stdout carries only the experiment outputs and is byte-identical for
// any -workers; -seed reroots every stream. The header and each
// experiment's wall time go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pond/internal/cliutil"
	"pond/internal/experiments"
)

func main() {
	var all []string
	for _, d := range experiments.Registry() {
		all = append(all, d.Name)
	}
	figs := flag.String("figures", strings.Join(all, ","), "comma-separated registry names of the experiments to print, in order")
	scaleFlag := flag.String("scale", "quick", "trace scale: tiny, quick, full, or paper; it also sets the model studies' folds, samples and retrain cadence")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS); results are identical for any value")
	seed := flag.Int64("seed", experiments.DefaultSeed, "root seed for every generation and training stream")
	sweep := flag.String("sweep", "", `scenario matrix to run instead of the figures, e.g. "scale=quick,full x policy=pooled,static"`)
	flag.Parse()

	if err := cliutil.ValidateRun(*workers, *seed); err != nil {
		cliutil.Fatal("pondreport", err)
	}
	if *sweep != "" {
		// Refuse the explicitly set flags a sweep would ignore.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "figures" || f.Name == "scale" {
				cliutil.Fatal("pondreport", fmt.Errorf("-%s cannot be combined with -sweep: the sweep's matrix sets the scales and runs no figures", f.Name))
			}
		})
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		cliutil.Fatal("pondreport", err)
	}
	defs, err := experiments.Lookup(strings.Split(*figs, ","))
	if err != nil {
		cliutil.Fatal("pondreport", err)
	}
	opts := []experiments.Option{experiments.WithWorkers(*workers), experiments.WithSeed(*seed)}
	if *sweep != "" {
		spec, err := experiments.ParseSweep(*sweep)
		if err != nil {
			cliutil.Fatal("pondreport", err)
		}
		fmt.Println(experiments.RunSweep(spec, opts...))
		return
	}

	fmt.Fprintf(os.Stderr, "Pond reproduction report (scale=%s, seed=%d)\n", scale, *seed)
	start := time.Now()
	for _, d := range defs {
		t0 := time.Now()
		fmt.Println(d.Run(scale, opts...))
		fmt.Fprintf(os.Stderr, "[%s took %.1fs]\n", d.Name, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "report complete in %.1fs\n", time.Since(start).Seconds())
}
