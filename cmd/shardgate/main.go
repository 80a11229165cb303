// Command shardgate checks PDES shard scaling on one benchjson document:
// the CI bench-smoke job runs BenchmarkPDESFabric at shards=1 and shards=4
// on the same runner and pipes the result here. Two properties gate:
//
//   - Determinism: every shard point must report the same events/op. The
//     fabric executes the exact same simulation at every shard count, so a
//     differing event count means the PDES machinery leaked into behaviour.
//   - Scaling: the sharded point must not regress more than -max-regress
//     (fractional, default 0.10) in ns/op against the shards=1 baseline on
//     the same machine. On a multi-core runner it should be faster; on a
//     single-core runner this bounds the barrier overhead itself.
//
// Comparing two points from one run of one runner sidesteps the noise of
// comparing against committed baselines: machine speed cancels out of the
// ratio.
//
// Usage:
//
//	shardgate [-bench BenchmarkPDESFabric] [-base shards=1] [-subject shards=4] \
//	          [-max-regress 0.10] bench.json
//
// Exit status: 0 clean, 1 gate violation, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// Result and Document mirror cmd/benchjson's JSON shape; unknown fields
// (the environment header) are ignored.
type Result struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type Document struct {
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	bench := flag.String("bench", "BenchmarkPDESFabric", "benchmark whose sub-benchmarks are compared")
	base := flag.String("base", "shards=1", "baseline sub-benchmark")
	subject := flag.String("subject", "shards=4", "sharded sub-benchmark under test")
	maxRegress := flag.Float64("max-regress", 0.10, "max fractional ns/op regression of subject vs base")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: shardgate [flags] bench.json")
		os.Exit(2)
	}
	doc, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardgate:", err)
		os.Exit(2)
	}
	b, err := find(doc, *bench+"/"+*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardgate:", err)
		os.Exit(2)
	}
	s, err := find(doc, *bench+"/"+*subject)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardgate:", err)
		os.Exit(2)
	}
	if err := gate(doc, b, s, *maxRegress); err != nil {
		fmt.Fprintln(os.Stderr, "shardgate:", err)
		os.Exit(1)
	}
	fmt.Printf("shardgate: ok (%s: %s %.4gms/op vs %s %.4gms/op, gomaxprocs=%d)\n",
		*bench, *base, b.NsPerOp/1e6, *subject, s.NsPerOp/1e6, doc.GoMaxProcs)
}

func load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &Document{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func find(doc *Document, name string) (Result, error) {
	for _, r := range doc.Results {
		if r.Name == name {
			return r, nil
		}
	}
	return Result{}, fmt.Errorf("benchmark %q not in document", name)
}

// gate applies the two checks. Determinism is exact: events/op is a pure
// function of seed and simulated duration, independent of shard count.
func gate(doc *Document, base, subject Result, maxRegress float64) error {
	be, bok := base.Metrics["events/op"]
	se, sok := subject.Metrics["events/op"]
	if !bok || !sok {
		return fmt.Errorf("events/op metric missing (base %v, subject %v)", bok, sok)
	}
	if be != se {
		return fmt.Errorf("determinism violation: %s ran %v events/op, %s ran %v events/op",
			base.Name, be, subject.Name, se)
	}
	if base.NsPerOp <= 0 {
		return fmt.Errorf("baseline %s has non-positive ns/op %v", base.Name, base.NsPerOp)
	}
	if ratio := subject.NsPerOp / base.NsPerOp; ratio > 1+maxRegress {
		return fmt.Errorf("scaling violation: %s is %.2f× the %s baseline (%.4gms vs %.4gms/op, gomaxprocs=%d, limit %.2f×)",
			subject.Name, ratio, base.Name, subject.NsPerOp/1e6, base.NsPerOp/1e6,
			doc.GoMaxProcs, 1+maxRegress)
	}
	return nil
}
