// Command feascheck probes whether a timely-throughput requirement vector is
// feasible on a fully-interfering network: it evaluates the analytic
// necessary bounds, runs the feasibility-optimal LDF policy as an empirical
// probe, and optionally binary-searches the capacity frontier.
//
// Example — where does the paper's symmetric video scenario saturate?
//
//	feascheck -profile video -links 20 -p 0.7 -arrivals video -rate 0.55 \
//	          -ratio 0.9 -frontier
//
// With -json the assessment is emitted as one machine-readable document
// carrying the per-link requirement vector (the SLO targets `rtmacwatch
// -slo` consumes) and the slot margin.
//
// Exit codes, shared by every command: 0 feasible, 1 infeasible, 2 usage or
// I/O error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"rtmac"
	"rtmac/internal/cli"
	"rtmac/scenario"
)

// report is the -json document: the feasibility verdict plus the requirement
// vector, ready to be fed to `rtmacwatch -slo`.
type report struct {
	Source                string                  `json:"source"`
	Profile               string                  `json:"profile"`
	Links                 int                     `json:"links"`
	CapacitySlots         int                     `json:"capacity_slots"`
	WorkloadSlots         float64                 `json:"workload_slots"`
	MarginSlots           float64                 `json:"margin_slots"`
	NecessaryBoundsOK     bool                    `json:"necessary_bounds_ok"`
	NecessaryBoundsReason string                  `json:"necessary_bounds_reason,omitempty"`
	ProbeDeficiency       float64                 `json:"probe_deficiency"`
	Feasible              bool                    `json:"feasible"`
	Frontier              float64                 `json:"frontier,omitempty"`
	PerLink               []rtmac.FeasibilityLink `json:"per_link"`
}

func main() { cli.Main("feascheck", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("feascheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configPath  = fs.String("config", "", "JSON scenario file (overrides the uniform-network flags)")
		profileName = fs.String("profile", "control", "video | control")
		links       = fs.Int("links", 10, "number of links")
		p           = fs.Float64("p", 0.7, "per-link delivery probability")
		arrName     = fs.String("arrivals", "bernoulli", "bernoulli | video | fixed")
		rate        = fs.Float64("rate", 0.78, "arrival parameter")
		ratio       = fs.Float64("ratio", 0.99, "required delivery ratio")
		intervals   = fs.Int("intervals", 3000, "probe length in intervals")
		seed        = fs.Uint64("seed", 1, "random seed")
		frontier    = fs.Bool("frontier", false, "binary-search the feasible scale of the requirement vector")
		subsets     = fs.Bool("subsets", false, "scan subset-level necessary bounds (links ≤ 14, uniform mode only)")
		jsonOut     = fs.Bool("json", false, "emit the assessment as one JSON document")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	var (
		cfg    rtmac.Config
		source string
		err    error
	)
	if *configPath != "" {
		source = *configPath
		cfg, _, _, err = scenario.LoadAnyFile(*configPath)
	} else {
		source = "flags"
		cfg, err = uniformConfig(*profileName, *links, *p, *arrName, *rate, *ratio, *seed)
	}
	if err != nil {
		return err
	}
	res, err := rtmac.CheckFeasibility(cfg, *intervals)
	if err != nil {
		return err
	}
	doc := report{
		Source:                source,
		Profile:               cfg.Profile.Name(),
		Links:                 len(cfg.Links),
		CapacitySlots:         res.CapacitySlots,
		WorkloadSlots:         res.WorkloadSlots,
		MarginSlots:           float64(res.CapacitySlots) - res.WorkloadSlots,
		NecessaryBoundsOK:     res.NecessaryBoundsOK,
		NecessaryBoundsReason: res.NecessaryBoundsReason,
		ProbeDeficiency:       res.ProbeDeficiency,
		Feasible:              res.Feasible,
		PerLink:               res.PerLink,
	}
	if *frontier {
		gamma, err := rtmac.CapacityFrontier(cfg, *intervals)
		if err != nil {
			return err
		}
		doc.Frontier = gamma
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		printHuman(stdout, doc)
		if *subsets {
			if *configPath != "" {
				return fmt.Errorf("-subsets supports only the uniform-network flags")
			}
			msg, err := rtmac.SubsetBoundViolation(cfg, 4000)
			if err != nil {
				return err
			}
			if msg == "" {
				fmt.Fprintln(stdout, "subset bounds: satisfied")
			} else {
				fmt.Fprintf(stdout, "subset bounds: VIOLATED — %s\n", msg)
			}
		}
	}
	if !doc.Feasible {
		return cli.Found
	}
	return nil
}

// uniformConfig assembles the symmetric network the CLI flags describe
// through the public API, so the assessment shares NewSimulation's
// validation path.
func uniformConfig(profileName string, links int, p float64, arrName string, rate, ratio float64, seed uint64) (rtmac.Config, error) {
	var profile rtmac.Profile
	switch profileName {
	case "video":
		profile = rtmac.VideoProfile()
	case "control":
		profile = rtmac.ControlProfile()
	default:
		return rtmac.Config{}, fmt.Errorf("unknown profile %q", profileName)
	}
	var arr rtmac.Arrivals
	var err error
	switch arrName {
	case "bernoulli":
		arr, err = rtmac.BernoulliArrivals(rate)
	case "video":
		arr, err = rtmac.VideoArrivals(rate)
	case "fixed":
		arr = rtmac.FixedArrivals(int(rate))
	default:
		err = fmt.Errorf("unknown arrival process %q", arrName)
	}
	if err != nil {
		return rtmac.Config{}, err
	}
	if links <= 0 {
		return rtmac.Config{}, fmt.Errorf("links must be positive, got %d", links)
	}
	ls := make([]rtmac.Link, links)
	for i := range ls {
		ls[i] = rtmac.Link{SuccessProb: p, Arrivals: arr, DeliveryRatio: ratio}
	}
	return rtmac.Config{Seed: seed, Profile: profile, Links: ls}, nil
}

func printHuman(w io.Writer, doc report) {
	fmt.Fprintf(w, "%s: profile %s, %d links, workload %.2f of %d slots/interval (margin %.2f)\n",
		doc.Source, doc.Profile, doc.Links, doc.WorkloadSlots, doc.CapacitySlots, doc.MarginSlots)
	if len(doc.PerLink) > 0 {
		fmt.Fprintf(w, "requirement: q[0] = %.4f packets/interval (use -json for the full vector)\n",
			doc.PerLink[0].Required)
	}
	if doc.NecessaryBoundsOK {
		fmt.Fprintln(w, "necessary bounds: satisfied")
	} else {
		fmt.Fprintf(w, "necessary bounds: VIOLATED — %s\n", doc.NecessaryBoundsReason)
	}
	verdict := "FEASIBLE"
	if !doc.Feasible {
		verdict = "INFEASIBLE"
	}
	fmt.Fprintf(w, "LDF probe: deficiency %.4f — empirically %s\n", doc.ProbeDeficiency, verdict)
	if doc.Frontier != 0 {
		fmt.Fprintf(w, "capacity frontier: γ ≈ %.3f (q scaled by γ is the empirical feasibility boundary)\n",
			doc.Frontier)
	}
}
