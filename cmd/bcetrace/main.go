// Command bcetrace generates, inspects and summarizes trace files in
// the BCET binary format.
//
// Examples:
//
//	bcetrace gen -bench gzip -n 1000000 -o gzip.bcet
//	bcetrace dump -i gzip.bcet -n 20
//	bcetrace stat -i gzip.bcet
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"bce/internal/manifest"
	"bce/internal/prof"
	"bce/internal/runner"
	"bce/internal/telemetry"
	"bce/internal/trace"
	"bce/internal/workload"
)

func main() {
	args := os.Args[1:]
	// Global options, before the subcommand: -debug-addr <addr>,
	// -log-level <level>, -profile-dir <dir>, and the zero-operand
	// -version.
	debugAddr, logLevel := "", "info"
	profileDir, version := "", false
globals:
	for len(args) >= 1 {
		if args[0] == "-version" {
			version = true
			args = args[1:]
			continue
		}
		if len(args) < 2 {
			break
		}
		switch args[0] {
		case "-debug-addr":
			debugAddr = args[1]
		case "-log-level":
			logLevel = args[1]
		case "-profile-dir":
			profileDir = args[1]
		default:
			break globals
		}
		args = args[2:]
	}
	logger, err := telemetry.InitLogging(logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcetrace:", err)
		os.Exit(2)
	}
	logger = logger.With("bin", "bcetrace")
	slog.SetDefault(logger)
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	telemetry.RegisterBuildLabel("trace_format", fmt.Sprint(trace.FormatVersion))
	if version {
		fmt.Println(telemetry.BuildInfoLine())
		return
	}
	stopProf, err := prof.Enable(profileDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcetrace:", err)
		os.Exit(2)
	}
	defer stopProf()
	if debugAddr != "" {
		srv, err := telemetry.StartDebug(debugAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcetrace:", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("debug endpoint up", "url", "http://"+srv.Addr()+"/debug/")
	}
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	// A SIGINT during gen stops generation at a record boundary and
	// removes the partial (footerless, hence unreadable) output file.
	ctx, stop := runner.ShutdownContext(context.Background())
	defer stop()
	switch args[0] {
	case "gen":
		err = cmdGen(ctx, args[1:])
	case "dump":
		err = cmdDump(args[1:])
	case "stat":
		err = cmdStat(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcetrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bcetrace [-debug-addr <addr>] [-log-level <level>] [-profile-dir <dir>]
           [-version] <command>
  bcetrace gen  -bench <name> -n <uops> -o <file>   generate a trace
  bcetrace dump -i <file> [-n <uops>] [-skip <uops>] print uops
  bcetrace stat -i <file>                            summarize a trace`)
}

func cmdGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	bench := fs.String("bench", "gzip", "benchmark name")
	n := fs.Uint64("n", 1_000_000, "uops to generate")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	gen, err := workload.Load(*bench, 0)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for i := uint64(0); i < *n; i++ {
		if i%65536 == 0 && ctx.Err() != nil {
			f.Close()
			os.Remove(*out)
			return fmt.Errorf("gen: interrupted after %d uops; removed partial %s", i, *out)
		}
		u, _ := gen.Next()
		if err := w.WriteUop(u); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d uops to %s (%d bytes, %.2f bytes/uop)\n",
		w.Count(), *out, info.Size(), float64(info.Size())/float64(w.Count()))
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("i", "", "input file (required)")
	n := fs.Int("n", 32, "uops to print")
	skip := fs.Int("skip", 0, "uops to skip first")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("dump: -i is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	for i := 0; i < *skip; i++ {
		if _, err := r.ReadUop(); err != nil {
			return fmt.Errorf("skipping: %w", err)
		}
	}
	for i := 0; i < *n; i++ {
		u, err := r.ReadUop()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Println(u)
	}
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stat: -i is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	var total, branches, taken, loads, stores, fp uint64
	pcs := map[uint64]struct{}{}
	for {
		u, err := r.ReadUop()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		total++
		switch {
		case u.Kind.IsConditional():
			branches++
			pcs[u.PC] = struct{}{}
			if u.Taken {
				taken++
			}
		case u.Kind == trace.Load:
			loads++
		case u.Kind == trace.Store:
			stores++
		case u.Kind.IsFP():
			fp++
		}
	}
	if total == 0 {
		return fmt.Errorf("empty trace")
	}
	fmt.Printf("uops                %12d\n", total)
	fmt.Printf("cond branches       %12d   (%.1f%% of uops, %.1f%% taken, %d static)\n",
		branches, 100*float64(branches)/float64(total), 100*float64(taken)/float64(branches), len(pcs))
	fmt.Printf("loads               %12d   (%.1f%%)\n", loads, 100*float64(loads)/float64(total))
	fmt.Printf("stores              %12d   (%.1f%%)\n", stores, 100*float64(stores)/float64(total))
	fmt.Printf("fp                  %12d   (%.1f%%)\n", fp, 100*float64(fp)/float64(total))
	return nil
}
