// Command bcenetproxy runs the network chaos proxy standalone: a TCP
// forwarder that degrades the path between a coordinator and one
// worker per a deterministic fault schedule (see
// internal/faults/netproxy and docs/robustness.md).
//
// Usage:
//
//	bcenetproxy -target 127.0.0.1:8371 -schedule chaos.json -addr-file proxy1.addr
//
// The proxy listens on an ephemeral localhost port, writes the chosen
// address to -addr-file (write-then-rename, so a watching script never
// reads a half-written file), and forwards until SIGINT/SIGTERM. On
// shutdown it prints its fault-injection statistics as JSON on stderr.
//
// The schedule file is the netproxy JSON form, e.g.:
//
//	{"seed": 7, "repeat": true, "rules": [
//	  {"for_ms": 200, "latency_ms": 5, "jitter_ms": 10},
//	  {"for_ms": 50, "partition": true},
//	  {"for_ms": 200, "reset_prob": 0.05}
//	]}
//
// Identical seed + schedule + traffic replays identical fault
// decisions, which is what lets CI assert byte-identical sweep output
// under chaos.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"bce/internal/faults/netproxy"
	"bce/internal/manifest"
	"bce/internal/prof"
	"bce/internal/telemetry"
)

func main() {
	var (
		target   = flag.String("target", "", "host:port to forward to (required)")
		schedule = flag.String("schedule", "", "path to the fault-schedule JSON file (required)")
		addrFile = flag.String("addr-file", "", "write the proxy's listen address to this file (optional)")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		profDir  = prof.RegisterFlags()
		version  = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	if *version {
		fmt.Println(telemetry.BuildInfoLine())
		return
	}
	if *target == "" || *schedule == "" {
		fmt.Fprintln(os.Stderr, "bcenetproxy: -target and -schedule are required")
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bcenetproxy: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	stopProf, err := prof.Enable(*profDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcenetproxy:", err)
		os.Exit(2)
	}
	defer stopProf()

	f, err := os.Open(*schedule)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcenetproxy:", err)
		os.Exit(1)
	}
	sched, err := netproxy.DecodeSchedule(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcenetproxy: schedule:", err)
		os.Exit(1)
	}

	p, err := netproxy.Start(*target, sched, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcenetproxy:", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(p.Addr()), 0o644); err == nil {
			err = os.Rename(tmp, *addrFile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcenetproxy:", err)
			p.Close()
			os.Exit(1)
		}
	}
	// Greppable by scripts, like bceworker's serving line.
	fmt.Fprintf(os.Stderr, "bcenetproxy: %s proxying for %s\n", p.Addr(), *target)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	p.Close()
	stats, err := json.Marshal(p.Stats())
	if err == nil {
		fmt.Fprintf(os.Stderr, "bcenetproxy: stats %s\n", stats)
	}
}
