// Command calibrate runs every NPB workload across the full operating-point
// grid and reports simulated vs paper (Table 2) normalized delay/energy,
// plus the measured phase mix at the top frequency. It is the tool used to
// fit the workload parameter tables in internal/npb, and it measures each
// profile through the same sweep path (experiments.Options.Profiles) that
// cmd/reproduce renders Table 2 from.
//
// Usage:
//
//	calibrate [-codes FT,CG] [-class C] [-fast]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/npb"
	"repro/internal/paper"
)

func main() {
	codesFlag := flag.String("codes", "BT,CG,EP,FT,IS,LU,MG,SP", "comma-separated benchmark codes")
	classFlag := flag.String("class", "C", "problem class (S, W, A, B, C)")
	flag.Parse()

	if len(*classFlag) != 1 || !npb.Class((*classFlag)[0]).Valid() {
		fmt.Fprintf(os.Stderr, "calibrate: invalid -class %q: want a single letter among S, W, A, B, C\n\n", *classFlag)
		flag.Usage()
		os.Exit(2)
	}
	// A nil Runner gives each sweep a fresh GOMAXPROCS engine.
	o := experiments.Default()
	o.Class = npb.Class((*classFlag)[0])

	var totalErr, cells float64
	for _, code := range strings.Split(*codesFlag, ",") {
		code = strings.TrimSpace(code)
		w, err := npb.New(code, o.Class, npb.PaperRanks(code))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", code, err)
			os.Exit(1)
		}
		start := time.Now()
		profs, _, err := o.Profiles([]npb.Workload{w})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", code, err)
			os.Exit(1)
		}
		prof := profs[0]
		pub := paper.Find(code)

		fmt.Printf("== %s (profiled in %.1fs wall) ==\n", prof.Workload, time.Since(start).Seconds())
		base := prof.Results["1400"]
		// Phase mix at top frequency, averaged over ranks.
		var c, m, x, wt float64
		for _, st := range base.RankStats {
			tot := base.Elapsed.Seconds()
			c += st.Compute.Seconds() / tot
			m += st.Memory.Seconds() / tot
			x += st.Transfer.Seconds() / tot
			wt += st.Wait.Seconds() / tot
		}
		nr := float64(len(base.RankStats))
		fmt.Printf("   mix@1400: compute %.3f  memory %.3f  transfer %.3f  wait %.3f  (T=%.1fs)\n",
			c/nr, m/nr, x/nr, wt/nr, base.Elapsed.Seconds())

		fmt.Printf("   %-6s %14s %14s %14s\n", "set", "sim D/E", "paper D/E", "err D/E")
		for _, key := range prof.Settings {
			cell := prof.Cells[key]
			pc, _ := pub.At(key)
			if pd, pe := pc.Delay, pc.Energy; pd > 0 {
				ed, ee := cell.Delay-pd, cell.Energy-pe
				totalErr += ed*ed + ee*ee
				cells += 2
				fmt.Printf("   %-6s   %5.2f/%5.2f    %5.2f/%5.2f    %+5.2f/%+5.2f\n",
					key, cell.Delay, cell.Energy, pd, pe, ed, ee)
			} else {
				fmt.Printf("   %-6s   %5.2f/%5.2f    %14s\n", key, cell.Delay, cell.Energy, "-")
			}
		}
	}
	if cells > 0 {
		fmt.Printf("\nRMS error over %d cells: %.4f\n", int(cells), math.Sqrt(totalErr/cells))
	}
}
