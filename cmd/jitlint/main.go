// Command jitlint runs the repo's static-invariant suite (DESIGN.md §11):
// maporder, wallclock, tracedisc and suppaudit — the
// compile-time guards behind the determinism, event-time and observability
// contracts the runtime sweeps pin.
//
// Usage:
//
//	go run ./cmd/jitlint ./...          # lint the whole module (the CI gate)
//	go run ./cmd/jitlint ./internal/engine
//	go run ./cmd/jitlint -inventory ./...  # print the //jitlint:allow inventory
//
// Findings go to stderr in file:line:col: [analyzer] message form; the
// exit status is 1 when any finding (or stale suppression) remains.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/load"
	"repro/internal/lint/suite"
)

// analyzers returns the registered suite; the registration test pins its
// contents against suppaudit's known-analyzer list.
func analyzers() []*lint.Analyzer {
	return suite.All()
}

func main() {
	inventory := flag.Bool("inventory", false,
		"print the //jitlint:allow suppression inventory (file:line analyzer reason) to stdout")
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: jitlint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers() {
			fmt.Println(a.Name)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if err := run(patterns, *inventory); err != nil {
		fmt.Fprintln(os.Stderr, "jitlint:", err)
		os.Exit(2)
	}
}

func run(patterns []string, inventory bool) error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root := cwd
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return fmt.Errorf("no go.mod at or above %s", cwd)
		}
		root = parent
	}
	l, err := load.New(root)
	if err != nil {
		return err
	}
	var dirs []string
	seen := map[string]bool{}
	for _, p := range patterns {
		var expand []string
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if rest == "." || rest == "" {
				rest = cwd
			}
			expand, err = l.PackageDirs(rest)
			if err != nil {
				return err
			}
		} else {
			expand = []string{p}
		}
		for _, d := range expand {
			abs, err := filepath.Abs(d)
			if err != nil {
				return err
			}
			if !seen[abs] {
				seen[abs] = true
				dirs = append(dirs, abs)
			}
		}
	}
	res, err := lint.Run(l, analyzers(), dirs)
	if err != nil {
		return err
	}
	if inventory {
		fmt.Printf("# jitlint suppression inventory: %d annotations, %d findings outstanding\n",
			len(res.Allows), len(res.Findings))
		for _, a := range res.Allows {
			rel, err := filepath.Rel(root, a.Pos.Filename)
			if err != nil {
				rel = a.Pos.Filename
			}
			fmt.Printf("%s:%d: %s: %s\n", rel, a.Pos.Line, a.Analyzer, a.Reason)
		}
	}
	for _, d := range res.Findings {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "jitlint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
	return nil
}
