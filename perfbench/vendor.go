package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/validate"
)

const (
	// poolSize is the candidate pool of one vendor op (the CLI default).
	poolSize = 300
	// goldenPools is how many pool seeds have a golden sealed-suite
	// digest; a run walks a seed-chosen permutation of them.
	goldenPools = 64
	// firstPoolSeed is the data seed of golden pool 0.
	firstPoolSeed = 1000
	// suiteKey seals every suite.
	suiteKey = "perfbench-suite-key"
)

// method is one vendor generator with its test budget Nt.
type method struct {
	name string
	nt   int
}

var (
	// selectMethod is Algorithm 1 at the CLI default budget.
	selectMethod = method{"select", 30}
	// combinedMethod is the CLI default generator; Nt=10 keeps one op
	// around a second.
	combinedMethod = method{"combined", 10}
)

// trainIP trains the benchmark's IP, the FastCIFARParams testbed, which
// trains serially and so is a function of its fixed seed alone.
func trainIP() (*nn.Network, error) {
	s, err := experiments.NewCIFARSetup(experiments.FastCIFARParams())
	if err != nil {
		return nil, err
	}
	return s.Net, nil
}

// paramDigest hashes the network's parameters bit for bit.
func paramDigest(net *nn.Network) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, v := range net.CopyParams() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// poolSeeds returns the data seed of each op of a run: a permutation of
// the golden pools chosen by the workload seed, repeated as needed.
func poolSeeds(seed int64) func(op int) int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(goldenPools)
	return func(op int) int64 { return firstPoolSeed + int64(perm[op%goldenPools]) }
}

// makePool renders the candidate pool of one vendor op.
func makePool(poolSeed int64) *data.Dataset {
	p := experiments.FastCIFARParams()
	return data.Objects(poolSize, p.H, p.W, poolSeed)
}

// vendorResult is what one vendor op produced.
type vendorResult struct {
	sealed []byte
	suite  *validate.Suite // the sealed suite, opened again
	gen    *core.Result
}

// vendorOp runs the vendor half once: generate a suite from pool with
// m, compute its reference outputs, seal it and open it again. Spans go
// to tr under op.
func vendorOp(net *nn.Network, m method, pool *data.Dataset, seed int64, wp *parallel.Pool, tr *tracer, op int) (vendorResult, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)

	opts := core.DefaultOptions(m.nt)
	opts.Coverage = coverage.DefaultConfig(net)
	opts.Seed = seed
	opts.Parallelism = wp.Workers()
	opts.Pool = wp

	sp := tr.begin("core.generate", op, root)
	var res *core.Result
	var err error
	if m == combinedMethod {
		res, err = core.Combined(net, pool, opts)
	} else {
		res, err = core.SelectFromTraining(net, pool, opts)
	}
	tr.end(sp)
	if err != nil {
		return vendorResult{}, fmt.Errorf("generate: %w", err)
	}

	sp = tr.begin("validate.build_suite", op, root)
	suite := validate.BuildSuite("perfbench", net, res.Tests, validate.QuantizedOutputs)
	tr.end(sp)

	sp = tr.begin("validate.seal", op, root)
	var buf bytes.Buffer
	err = suite.Seal(&buf, []byte(suiteKey))
	tr.end(sp)
	if err != nil {
		return vendorResult{}, fmt.Errorf("seal: %w", err)
	}

	sp = tr.begin("validate.open", op, root)
	opened, err := validate.OpenSuite(bytes.NewReader(buf.Bytes()), []byte(suiteKey))
	tr.end(sp)
	if err != nil {
		return vendorResult{}, fmt.Errorf("open: %w", err)
	}
	return vendorResult{sealed: buf.Bytes(), suite: opened, gen: res}, nil
}

// checkVendor is the gate on one vendor op: the sealed bytes must match
// the golden digest of (method, pool seed), and the opened suite must
// replay PASS against the in-process IP.
func checkVendor(net *nn.Network, g goldens, m method, poolSeed int64, r vendorResult) error {
	want, ok := g[goldenKey{m.name, poolSeed}]
	if !ok {
		return fmt.Errorf("no golden digest for %s pool %d", m.name, poolSeed)
	}
	if got := sha256.Sum256(r.sealed); got != want {
		return fmt.Errorf("%s pool %d: sealed suite digest %x, golden %x", m.name, poolSeed, got, want)
	}
	rep, err := r.suite.Replay(validate.LocalIP{Net: net}, validate.ReplayConfig{})
	if err != nil {
		return fmt.Errorf("%s pool %d: replay: %w", m.name, poolSeed, err)
	}
	if !rep.Passed {
		return fmt.Errorf("%s pool %d: replay on the intact IP: %v", m.name, poolSeed, rep)
	}
	return nil
}

// goldenKey names one golden sealed suite.
type goldenKey struct {
	method   string
	poolSeed int64
}

// goldens maps each golden suite to the SHA-256 of its sealed bytes.
type goldens map[goldenKey][32]byte

//go:embed goldens.txt
var goldensTxt string

// parseGoldens reads lines of "<method> <pool seed> <sha256 hex>";
// blank lines and lines starting with # are skipped.
func parseGoldens(s string) (goldens, error) {
	g := make(goldens)
	sc := bufio.NewScanner(strings.NewReader(s))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("goldens line %d: want 3 fields, got %d", n, len(f))
		}
		seed, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("goldens line %d: %w", n, err)
		}
		raw, err := hex.DecodeString(f[2])
		if err != nil || len(raw) != 32 {
			return nil, fmt.Errorf("goldens line %d: bad digest %q", n, f[2])
		}
		var d [32]byte
		copy(d[:], raw)
		g[goldenKey{f[0], seed}] = d
	}
	return g, sc.Err()
}

// refreshGoldens regenerates every golden suite and writes the digests
// to path.
func refreshGoldens(path string) error {
	net, err := trainIP()
	if err != nil {
		return err
	}
	wp := parallel.NewPool(workers())
	defer wp.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "# SHA-256 of the sealed suite of each golden vendor op: <method> <pool seed> <digest>.\n")
	fmt.Fprintf(&b, "# IP parameter digest %x\n", paramDigest(net))
	for _, m := range []method{selectMethod, combinedMethod} {
		for k := 0; k < goldenPools; k++ {
			ps := int64(firstPoolSeed + k)
			start := time.Now()
			r, err := vendorOp(net, m, makePool(ps), ps, wp, nil, k)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s %d %x\n", m.name, ps, sha256.Sum256(r.sealed))
			fmt.Fprintf(os.Stderr, "%s %d %v\n", m.name, ps, time.Since(start))
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
