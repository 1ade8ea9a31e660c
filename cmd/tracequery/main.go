// Command tracequery filters, aggregates and pretty-prints packet-journey
// streams recorded by `rtmacsim -journeys` (or Simulation.EnableJourneys):
// per-cause deadline-miss attribution tables, per-link breakdowns, delivery
// delay percentiles, and human-readable journey listings.
//
// Usage:
//
//	tracequery journeys.jsonl              # attribution summary + delay percentiles
//	tracequery -by-link journeys.jsonl     # per-link attribution table
//	tracequery -cause lost-to-collision -print 5 journeys.jsonl
//	tracequery -link 3 journeys.jsonl      # one link only
//	tracequery -check journeys.jsonl       # validate every span; exit 1 on malformed
//	rtmacsim -journeys /dev/stdout ... | tracequery -check -
//
// Exit codes: 0 success, 1 a malformed stream (or, with -check, an invalid
// span), 2 usage or I/O error.
package main

import "rtmac/internal/cli"

func main() { cli.Main("tracequery", run) }
