package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/validate"
)

// engineGoldens pins the end-to-end outputs of the layer engine for
// fixed seeds: sealed suites, trained parameters, float32 logits and
// tampered-IP verdicts. The digests were recorded before the engine
// lost its separate per-sample layer pass, so any change to the layer
// arithmetic, the extraction or synthesis loops, training or the wire
// path shows up here as a mismatch. A refactor of the engine must leave
// every digest unchanged; only a deliberate change of results may
// re-record them, and it must say why.
var engineGoldens = map[string]string{
	"cifar/fit":               "5958753a6696ae349245c1c0479886e7d4510dac5d92c308e7a0ce93b1ef601a",
	"cifar/select":            "1801d668929466996081bf0ae0cd9a12df27d07c7b44198a2e311b85ee7c22a8",
	"cifar/combined":          "3cd16d546c7c360ae065bb9fa6ea6c318d68f0b3bf8709cf467a047f600f7ed5",
	"cifar/gradient":          "99ea52011da6191b5e5d156e11c8993ee49d494c972ff3817cbdaa7d20ab0c53",
	"cifar/f32-logits":        "9e4250233c0b974bb53a13d97defa258dfa04f20d80a21321c2bcf0dcbcb1fb0",
	"cifar/verdict-local":     "16471fe8f4aae878d45d349005148d201f3fb7c839c2f79832c9df791fd95d9d",
	"cifar/verdict-v5":        "19f36d0f21395016de4a04915c57d880c2509d1eb75f4f4af7692e5a0d274e84",
	"mnist/fit":               "6fb05050611b329ca0cbcffd644a9cbc0efca9a2287c9a506a6083c28dac4d08",
	"mnist/select":            "9d0c6893913dda47f6535930da0c5aa96260a800babb8e320f67dca66d769c38",
	"mnist/combined":          "9d0c6893913dda47f6535930da0c5aa96260a800babb8e320f67dca66d769c38",
	"mnist/gradient":          "5ae259ba92df3b9c3f7a3d7c4659970402d57e5e827f167b593dcc90b006dbb1",
	"mnist/f32-logits":        "b26335dee43e897fc4dbf679fac05c195ad6f9a5380755d31d2fd5826c22e9d8",
	"mnist/verdict-local":     "4b0292f451652b037f93a413bf0db85aa810ed70a7aef87cb4e1840f2143cbf4",
	"mnist/verdict-v5":        "96f10b641d3aa501fb07bb36185a212fe9e934df20a96da0d8230059ca6e83da",
	"fit/cifar/parallelism-1": "00243afc8236a2721b09e5d18be826b65a294cc96436d50183bbd101d540e4fa",
	"fit/cifar/parallelism-4": "bfe7be0345e2fc35775aec95bd0693616fc219315b0a0d1afae0e67fe59a76e4",
	"fit/mnist/parallelism-1": "4a631ba965f7c90d33c7bfbdb8bcff9de22fec7da3b93dde3f54e3366394ce87",
	"fit/mnist/parallelism-4": "5f7f817af590117eb81848a58b8dcc590bf8604fac8fcaaf86498a33ef3c1ca0",
}

// goldenKey seals every golden suite.
var goldenKey = []byte("engine-goldens")

// goldenSetups are the fast CIFAR and MNIST testbeds, trained once.
var goldenSetups = sync.OnceValues(func() ([]*experiments.Setup, error) {
	c, err := experiments.NewCIFARSetup(experiments.FastCIFARParams())
	if err != nil {
		return nil, err
	}
	m, err := experiments.NewMNISTSetup(experiments.FastMNISTParams())
	if err != nil {
		return nil, err
	}
	return []*experiments.Setup{c, m}, nil
})

// digestFloats hashes the exact bits of vals.
func digestFloats(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestFloats32 hashes the exact bits of float32 vals.
func digestFloats32(vals []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sealDigest builds the quantised suite of tests on net, seals it and
// hashes the sealed bytes.
func sealDigest(t *testing.T, net *nn.Network, tests []*tensor.Tensor) (string, *validate.Suite) {
	t.Helper()
	suite := validate.BuildSuite("golden", net, tests, validate.QuantizedOutputs)
	var buf bytes.Buffer
	if err := suite.Seal(&buf, goldenKey); err != nil {
		t.Fatal(err)
	}
	opened, err := validate.OpenSuite(bytes.NewReader(buf.Bytes()), goldenKey)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), opened
}

// goldenProbes returns fixed probe inputs of the testbed's shape.
func goldenProbes(s *experiments.Setup, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(7))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(s.InShape...)
		xs[i].FillNormal(rng, 0.5, 0.3)
	}
	return xs
}

// tamperedVerdicts applies a seeded SBA to a clone of net and replays
// suite against it in process (one query at a time and batched) and
// over the quantised v5 wire, returning the digest of each verdict set.
func tamperedVerdicts(t *testing.T, model *nn.Network, suite *validate.Suite) (local, wire string) {
	t.Helper()
	bad := model.Clone()
	if _, err := attack.SBA(bad, 0.02, rand.New(rand.NewSource(11))); err != nil {
		t.Fatal(err)
	}
	var reps []validate.Report
	for _, cfg := range []validate.ReplayConfig{{}, {Batch: 1}, {Batch: 4}} {
		rep, err := suite.Replay(validate.LocalIP{Net: bad}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v", reps)
	for _, x := range suite.Inputs {
		out, err := validate.LocalIP{Net: bad}.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(digestFloats(out.Data())))
	}
	local = fmt.Sprintf("%x", h.Sum(nil))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := validate.ServeWith(ln, bad, validate.ServerOptions{Workers: 2, FrameStore: validate.NewFrameStore(0, 0)})
	defer srv.Close()
	reps = reps[:0]
	for _, batch := range []int{1, 4} {
		ip, err := validate.DialWith(srv.Addr(), validate.DialOptions{Wire: validate.WireQuant})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := suite.Replay(ip, validate.ReplayConfig{Batch: batch, Wire: validate.WireQuant})
		ip.Close()
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	wire = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", reps))))
	return local, wire
}

// fitDigest trains a fresh model of arch on a small dataset whose last
// minibatch is short (so some workers get one-sample chunks) and hashes
// the trained parameters.
func fitDigest(t *testing.T, arch models.Arch, ds *data.Dataset, parallelism int) string {
	t.Helper()
	net, err := arch.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Fit(net, ds, train.Config{
		Epochs: 2, BatchSize: 16, Optimizer: train.NewAdam(0.003), Seed: 9, Parallelism: parallelism,
	}); err != nil {
		t.Fatal(err)
	}
	return digestFloats(net.CopyParams())
}

func TestEngineGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two testbeds")
	}
	setups, err := goldenSetups()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, s := range setups {
		got[s.Name+"/fit"] = digestFloats(s.Net.CopyParams())

		opts := s.GenOptions(32)
		opts.Coverage = s.Cov
		opts.Seed = 3
		opts.Parallelism = 2
		sel, err := core.SelectFromTraining(s.Net, s.Select, opts)
		if err != nil {
			t.Fatal(err)
		}
		var suite *validate.Suite
		got[s.Name+"/select"], suite = sealDigest(t, s.Net, sel.Tests)
		comb, err := core.Combined(s.Net, s.Select, opts)
		if err != nil {
			t.Fatal(err)
		}
		got[s.Name+"/combined"], _ = sealDigest(t, s.Net, comb.Tests)
		gopts := opts
		gopts.MaxTests = 20
		grad, err := core.GradientGenerate(s.Net, s.InShape, s.Classes, gopts)
		if err != nil {
			t.Fatal(err)
		}
		got[s.Name+"/gradient"], _ = sealDigest(t, s.Net, grad.Tests)

		probes := goldenProbes(s, 9)
		got[s.Name+"/f32-logits"] = digestFloats32(s.Net.ConvertF32().ForwardBatch(tensor.Stack(probes).F32()).Data())

		got[s.Name+"/verdict-local"], got[s.Name+"/verdict-v5"] = tamperedVerdicts(t, s.Net, suite)
	}
	for _, a := range []struct {
		name string
		arch models.Arch
		ds   *data.Dataset
	}{
		{"cifar", models.CIFAR(20, 20, 0.12), data.Objects(70, 20, 20, 21)},
		{"mnist", models.MNIST(20, 20, 0.12), data.Digits(70, 20, 20, 22)},
	} {
		for _, p := range []int{1, 4} {
			got[fmt.Sprintf("fit/%s/parallelism-%d", a.name, p)] = fitDigest(t, a.arch, a.ds, p)
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := engineGoldens[k]
		if !ok {
			t.Errorf("%s: no golden digest (got %s)", k, got[k])
			continue
		}
		if got[k] != want {
			t.Errorf("%s: digest %s, golden %s", k, got[k], want)
		}
	}
	if len(got) != len(engineGoldens) {
		t.Errorf("computed %d digests, %d goldens recorded", len(got), len(engineGoldens))
	}
}
