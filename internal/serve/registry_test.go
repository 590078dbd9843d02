package serve_test

import (
	"testing"

	"geostat"
	"geostat/internal/serve"
)

// TestRegistryDigestOneSnapshot pins Registry.Digest to one entry read:
// after a re-upload every field of the answer (size, version, flags,
// digest) describes the new snapshot, never a mix of the two.
func TestRegistryDigestOneSnapshot(t *testing.T) {
	reg := serve.NewRegistry()
	first := geostat.FromPoints([]geostat.Point{{X: 1, Y: 2}, {X: 3, Y: 4}})
	v1, err := reg.Put("ev", first)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := reg.Digest("ev")
	if !ok {
		t.Fatal("digest of a stored dataset not found")
	}
	want := serve.DatasetInfo{Name: "ev", N: 2, Version: v1, Digest: first.Digest()}
	if info != want {
		t.Fatalf("first digest = %+v, want %+v", info, want)
	}

	second := geostat.FromPoints([]geostat.Point{{X: 5, Y: 6}, {X: 7, Y: 8}, {X: 9, Y: 1}})
	if err := second.SetValues([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Put("ev", second)
	if err != nil {
		t.Fatal(err)
	}
	info, ok = reg.Digest("ev")
	if !ok {
		t.Fatal("digest of a re-uploaded dataset not found")
	}
	want = serve.DatasetInfo{Name: "ev", N: 3, Version: v2, HasValues: true, Digest: second.Digest()}
	if info != want {
		t.Fatalf("re-put digest = %+v, want %+v", info, want)
	}
	if _, ok := reg.Digest("missing"); ok {
		t.Error("digest of an unknown name reported ok")
	}
}
