package main

import "fmt"

// pinned holds each workload's pass digest at the default seed on the
// reference code. Simulated statistics must stay byte-identical under any
// speed-only change; regenerate with --print-digests only when a change is
// meant to alter what the simulator computes.
var pinned = map[string]string{
	"kernel":   "b6628c33/10453",
	"sweep":    "b34b5598/22747",
	"observed": "events=8bb9f375/9464438 journeys=28bd2bfd/11054461",
	"replay":   "d60bc550/79",
}

// currentDigests computes every workload's pass digest at seed.
func currentDigests(seed uint64) (map[string]string, error) {
	out := make(map[string]string, len(workloadNames))
	for _, name := range workloadNames {
		w := newWorkload(name, seed)
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		if ct, ok := w.(censusTaker); ok {
			if _, err := ct.census(); err != nil {
				return nil, fmt.Errorf("%s census: %w", name, err)
			}
		}
		if err := w.prepare(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res := w.pass(&clock{})
		if res.err != nil {
			return nil, fmt.Errorf("%s: %w", name, res.err)
		}
		out[name] = res.digest
	}
	return out, nil
}
