// Command experiments regenerates the paper's tables and figures plus
// the extension experiments E1-E13 (README.md gives the tour of the
// repository, PAPER.md the paper they extend).
//
// Usage:
//
//	experiments [-run all|fig1|fig2|table1|regional|corroboration|aggregation|
//	                  sensitivity|sweep|agreement|diurnal|streaming|stack|isps]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"iqb/internal/experiments"
)

func main() {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	name := fs.String("run", "all", "experiment to run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := experiments.Run(ctx, *name, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
