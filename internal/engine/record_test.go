package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dmac/internal/dist"
)

// TestRunRecordEmbedsSnapshot: Metrics and StageMetrics embed dist.Snapshot
// and declare none of its fields again, so every charge has one name in the
// run record and in each stage's.
func TestRunRecordEmbedsSnapshot(t *testing.T) {
	snapshot := reflect.TypeOf(dist.Snapshot{})
	charge := map[string]bool{}
	for _, f := range reflect.VisibleFields(snapshot) {
		charge[f.Name] = true
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Metrics{}), reflect.TypeOf(StageMetrics{})} {
		embeds := false
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous && f.Type == snapshot {
				embeds = true
			} else if charge[f.Name] {
				t.Errorf("%s declares %s, a dist.Snapshot field", typ.Name(), f.Name)
			}
		}
		if !embeds {
			t.Errorf("%s does not embed dist.Snapshot", typ.Name())
		}
	}
}

// TestMetricsAddFoldsEveryField fills two Metrics with distinct random
// values in every numeric field, their stage rows and embedded Snapshots
// included, and requires Add to sum each one: Stages takes the larger, a
// stage row its Stage, a row only the second Metrics has is that row. A field
// added to the record and forgotten in Add fails here; so does a field of a
// kind the test cannot fill, until Add and this test decide how it folds.
func TestMetricsAddFoldsEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	var a, b Metrics
	fillRecord(t, reflect.ValueOf(&a).Elem(), rng, 2)
	fillRecord(t, reflect.ValueOf(&b).Elem(), rng, 3)
	rows := slices.Clone(a.PerStage)
	got := a
	got.Add(b)
	if !slices.Equal(a.PerStage, rows) {
		t.Error("Add wrote into the stage rows of the Metrics it was copied from")
	}
	checkFold(t, "Metrics", reflect.ValueOf(got), reflect.ValueOf(a), reflect.ValueOf(b))
}

// fillRecord sets every numeric field under v to a distinct whole number
// (so float sums are exact) and every slice to rows rows.
func fillRecord(t *testing.T, v reflect.Value, rng *rand.Rand, rows int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(1 + rng.Int63n(1<<20))
	case reflect.Float64:
		v.SetFloat(float64(1 + rng.Int63n(1<<20)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRecord(t, v.Field(i), rng, rows)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), rows, rows))
		for i := 0; i < rows; i++ {
			fillRecord(t, v.Index(i), rng, rows)
		}
	default:
		t.Fatalf("a record field of kind %s: decide how Add folds it", v.Kind())
	}
}

// checkFold requires got to be x and y folded, field by field; path names
// the field in errors.
func checkFold(t *testing.T, path string, got, x, y reflect.Value) {
	t.Helper()
	switch got.Kind() {
	case reflect.Int, reflect.Int64:
		want := x.Int() + y.Int()
		switch {
		case strings.HasSuffix(path, ".Stages"):
			want = max(x.Int(), y.Int())
		case strings.HasSuffix(path, ".Stage"):
			want = y.Int()
		}
		if got.Int() != want {
			t.Errorf("%s = %d after Add of %d and %d, want %d", path, got.Int(), x.Int(), y.Int(), want)
		}
	case reflect.Float64:
		if want := x.Float() + y.Float(); got.Float() != want {
			t.Errorf("%s = %v after Add of %v and %v, want %v", path, got.Float(), x.Float(), y.Float(), want)
		}
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			checkFold(t, path+"."+got.Type().Field(i).Name, got.Field(i), x.Field(i), y.Field(i))
		}
	case reflect.Slice:
		if want := max(x.Len(), y.Len()); got.Len() != want {
			t.Fatalf("%s has %d rows after Add of %d and %d, want %d", path, got.Len(), x.Len(), y.Len(), want)
		}
		zero := reflect.Zero(got.Type().Elem())
		for i := 0; i < got.Len(); i++ {
			xi, yi := zero, zero
			if i < x.Len() {
				xi = x.Index(i)
			}
			if i < y.Len() {
				yi = y.Index(i)
			}
			checkFold(t, path+"["+strconv.Itoa(i)+"]", got.Index(i), xi, yi)
		}
	default:
		t.Fatalf("%s: a record field of kind %s", path, got.Kind())
	}
}
