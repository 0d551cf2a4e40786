// Command dualcheck decides whether two simple hypergraphs (equivalently,
// two irredundant monotone DNFs) are dual.
//
// Usage:
//
//	dualcheck [-engine portfolio|core|core-parallel|fk-a|fk-b|logspace]
//	          [-race] [-workers n] [-algo bm|bmp|fka|fkb|space]
//	          [-mode replay|strict|pipelined] G.hg H.hg
//
// Each input file lists one hyperedge per line as whitespace-separated
// vertex names ('-' denotes the empty edge, '#' starts a comment). The two
// files share one vertex universe. The decision runs on the selected
// engine; the default portfolio dispatches on edge counts, and -race
// hedges it by racing two engines. -algo keeps the legacy spellings (bm,
// bmp, fka, fkb) plus the space-bounded certificate search, whose regime
// -mode selects. Exit status: 0 dual, 1 not dual, 2 error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dualspace"
	"dualspace/internal/core"
	"dualspace/internal/hgio"
	"dualspace/internal/logspace"
)

func main() {
	engineName := flag.String("engine", "", "decision engine: "+strings.Join(dualspace.EngineNames(), ", ")+" (default portfolio; overrides -algo)")
	raceMode := flag.Bool("race", false, "race the portfolio's selection against a contrasting engine")
	algo := flag.String("algo", "", "legacy algorithm spelling: bm, bmp, fka, fkb, space")
	mode := flag.String("mode", "replay", "space regime for -algo space: replay, strict, pipelined")
	workers := flag.Int("workers", 0, "goroutines for -engine core-parallel / -algo bmp only (0 = GOMAXPROCS)")
	quiet := flag.Bool("q", false, "suppress witness output")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dualcheck [-engine name] [-algo bm|bmp|fka|fkb|space] G.hg H.hg")
		os.Exit(2)
	}
	gf, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer gf.Close()
	hf, err := os.Open(flag.Arg(1))
	exitOn(err)
	defer hf.Close()
	hs, sy, err := hgio.ReadHypergraphs(gf, hf)
	exitOn(err)
	g, h := hs[0], hs[1]

	if *engineName == "" && *algo == "space" {
		// Keep the error-instead-of-silent-fallback policy of resolveEngine:
		// the certificate search neither races nor takes a worker bound.
		if *raceMode {
			exitOn(fmt.Errorf("-race applies only to the portfolio engine, not the space certificate search"))
		}
		if *workers != 0 {
			exitOn(fmt.Errorf("-workers does not apply to the space certificate search"))
		}
		runSpace(g, h, *mode, sy, *quiet)
		return
	}
	eng, err := resolveEngine(*engineName, *algo, *raceMode, *workers)
	exitOn(err)
	res, err := dualspace.ExplainWith(context.Background(), g, h, dualspace.Options{Engine: eng})
	exitOn(err)
	report(res.Dual, describe(res, sy), *quiet)
}

// resolveEngine maps the -engine / -algo / -race / -workers flags to an
// engine: -engine wins over the legacy -algo spellings, then the default
// portfolio. -race applies only to the portfolio and -workers only to
// core-parallel (-engine core-parallel or -algo bmp), which the portfolio
// never selects; asking for either on an engine that cannot honor it is an
// error rather than a silent fallback.
func resolveEngine(name, algo string, raceMode bool, workers int) (dualspace.Engine, error) {
	if name == "" {
		switch algo {
		case "":
			name = "portfolio"
		case "bm":
			name = "core"
		case "bmp":
			name = "core-parallel"
		case "fka":
			name = "fk-a"
		case "fkb":
			name = "fk-b"
		default:
			return nil, fmt.Errorf("unknown algorithm %q", algo)
		}
	}
	if raceMode && name != "portfolio" {
		return nil, fmt.Errorf("-race applies only to the portfolio engine, not %q", name)
	}
	if workers != 0 && name != "core-parallel" {
		return nil, fmt.Errorf("-workers applies only to -engine core-parallel (or -algo bmp), not %q", name)
	}
	switch {
	case name == "portfolio" && raceMode:
		return dualspace.NewPortfolioEngine(dualspace.PortfolioConfig{Race: true}), nil
	case name == "core-parallel" && workers != 0:
		return dualspace.NewParallelEngine(workers), nil
	}
	return dualspace.EngineByName(name)
}

// runSpace is the certificate-search path: preconditions through the
// engine, then the space-bounded fail-path search with a workspace meter.
func runSpace(g, h *dualspace.Hypergraph, mode string, sy *hgio.Symbols, quiet bool) {
	m, err := parseMode(mode)
	exitOn(err)
	res, err := dualspace.Explain(g, h)
	exitOn(err)
	if !res.Dual && res.Reason != dualspace.ReasonNewTransversal {
		report(false, describe(res, sy), quiet)
		return
	}
	meter := dualspace.NewSpaceMeter()
	pi, w, found, err := dualspace.FailCertificate(g, h, m, meter)
	exitOn(err)
	detail := fmt.Sprintf("peak workspace %d bits (%s mode)", meter.Peak(), m)
	if found {
		detail = fmt.Sprintf("certificate %v, witness %s, %s", pi, names(w, sy), detail)
	}
	report(!found, detail, quiet)
}

func describe(res *core.Result, sy *hgio.Symbols) string {
	if res.Dual {
		return ""
	}
	s := res.Reason.String()
	if res.Reason == dualspace.ReasonNewTransversal {
		s += ": " + names(res.Witness, sy)
	}
	return s
}

func names(set dualspace.Set, sy *hgio.Symbols) string {
	out := "{"
	first := true
	set.ForEach(func(v int) bool {
		if !first {
			out += " "
		}
		first = false
		if v < sy.Len() {
			out += sy.Name(v)
		} else {
			out += fmt.Sprint(v)
		}
		return true
	})
	return out + "}"
}

func parseMode(s string) (dualspace.SpaceMode, error) {
	switch s {
	case "replay":
		return logspace.ModeReplay, nil
	case "strict":
		return logspace.ModeStrict, nil
	case "pipelined":
		return logspace.ModePipelined, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func report(dual bool, detail string, quiet bool) {
	if dual {
		fmt.Println("DUAL")
		os.Exit(0)
	}
	if quiet || detail == "" {
		fmt.Println("NOT DUAL")
	} else {
		fmt.Printf("NOT DUAL (%s)\n", detail)
	}
	os.Exit(1)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dualcheck:", err)
		os.Exit(2)
	}
}
