package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"repro/internal/server"
)

// serveStats is what serve mode writes when it stops: runtime figures
// over its measuring window.
type serveStats struct {
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_seconds"`
	TotalCPU   float64 `json:"total_cpu_seconds"`
}

// serve runs the demo server as trex-server does, with the flags
// server-mix uses, and measures it: SIGUSR1 opens the window, starting a
// CPU profile and a runtime snapshot; SIGTERM closes it, writes both
// files, and then drains the server like trex-server.
func serve(args []string) error {
	fs := flag.NewFlagSet("perfbench serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 1, "per-session engine parallelism")
	spool := fs.String("spool", "", "session spool directory")
	maxLive := fs.Int("max-live-sessions", 0, "in-memory session budget")
	profile := fs.String("profile", "", "CPU profile of the window")
	stats := fs.String("stats", "", "runtime figures of the window, as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := server.New()
	srv.Workers = *workers
	srv.SpoolDir = *spool
	srv.MaxLiveSessions = *maxLive

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mark := make(chan os.Signal, 1)
	signal.Notify(mark, syscall.SIGUSR1)
	defer signal.Stop(mark)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(ctx, *addr) }()

	var prof bytes.Buffer
	var rt0 [3]float64
	profiling := false
	for {
		select {
		case <-mark:
			if !profiling {
				rt0 = readRuntime()
				if err := pprof.StartCPUProfile(&prof); err != nil {
					return err
				}
				profiling = true
			}
		case <-ctx.Done():
			if profiling {
				pprof.StopCPUProfile()
				rt := readRuntime()
				b, err := json.Marshal(serveStats{rt[0] - rt0[0], rt[1] - rt0[1], rt[2] - rt0[2]})
				if err != nil {
					return err
				}
				if err := os.WriteFile(*stats, b, 0o644); err != nil {
					return err
				}
				if err := os.WriteFile(*profile, prof.Bytes(), 0o644); err != nil {
					return err
				}
			}
			return <-errc
		case err := <-errc:
			return err
		}
	}
}
