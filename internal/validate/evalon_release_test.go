package validate

import (
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
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

// TestEvalOnReleasesWorkspaces: evalOn serves pooled clones, which must
// go back to their pool holding no workspaces — after a one-query
// exchange (a batch of one), a batched one, and a rejected query alike.
func TestEvalOnReleasesWorkspaces(t *testing.T) {
	net := goldenNet().Clone()
	net.Forward(testInputs(1, 1)[0])
	if len(workspacesLeft(net)) == 0 {
		t.Fatal("workspacesLeft sees nothing after a forward pass")
	}
	net.ReleaseBatchState()
	for _, q := range []struct {
		name    string
		xs      []*tensor.Tensor
		wantErr bool
	}{
		{"one query", testInputs(1, 2), false},
		{"batch", testInputs(3, 3), false},
		{"bad shape", []*tensor.Tensor{tensor.New(1, 10, 9)}, true},
	} {
		out, err := evalOn(net, q.xs)
		if (err != nil) != q.wantErr {
			t.Fatalf("%s: err = %v, want error %v", q.name, err, q.wantErr)
		}
		if err == nil && len(out) != len(q.xs) {
			t.Fatalf("%s: %d outputs for %d queries", q.name, len(out), len(q.xs))
		}
		if held := workspacesLeft(net); len(held) > 0 {
			t.Fatalf("%s: evalOn left workspaces on the clone: %v", q.name, held)
		}
	}
}
