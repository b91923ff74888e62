package coverage

import (
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

// workspacesLeft lists every workspace or cache net still holds: the
// StackBatch input and each layer's unexported pointer, slice, map or
// interface fields, read by reflection.
func workspacesLeft(net *nn.Network) []string {
	var held []string
	if !reflect.ValueOf(net).Elem().FieldByName("stack").IsNil() {
		held = append(held, "Network.stack")
	}
	for _, l := range net.LayerStack {
		v := reflect.ValueOf(l).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
				if !f.IsExported() && !fv.IsNil() {
					held = append(held, l.Name()+"."+f.Name)
				}
			}
		}
	}
	return held
}

// TestParamSetsReleasesWorkspaces: serial extraction runs on the
// caller's own network, so it must drop the layer workspaces it filled
// at every batch size — batch 1 included — instead of leaving them
// pinned on a network that lives on.
func TestParamSetsReleasesWorkspaces(t *testing.T) {
	net := models.Tiny(nn.Tanh, 1, 10, 10, 4, 10, 7)
	ds := data.Digits(5, 10, 10, 8)
	cfg := DefaultConfig(net)
	net.Forward(ds.Samples[0].X)
	if len(workspacesLeft(net)) == 0 {
		t.Fatal("workspacesLeft sees nothing after a forward pass")
	}
	for _, batch := range []int{1, 3} {
		ParamSetsParallel(net, ds, cfg, 1, batch)
		if held := workspacesLeft(net); len(held) > 0 {
			t.Fatalf("batch %d: ParamSetsParallel left workspaces on the caller's network: %v", batch, held)
		}
		NeuronSets(net, ds, NeuronConfig{}, 1, batch)
		if held := workspacesLeft(net); len(held) > 0 {
			t.Fatalf("batch %d: NeuronSets left workspaces on the caller's network: %v", batch, held)
		}
	}
}
