package runner

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/npb"
	"repro/internal/sched"
)

// keyedJob is a job whose keyed values have every strategy arm set and
// a two-entry per-node map, so each leaf the key walks holds a value.
func keyedJob(t testing.TB) Job {
	t.Helper()
	w, err := npb.FT(npb.ClassC, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := core.Daemon(sched.CPUSpeedV121())
	s.PerNode = map[int]dvs.MHz{0: 600, 3: 1200}
	s.Predictive = sched.DefaultPredictive()
	s.OnDemand = sched.DefaultOnDemand()
	s.PowerCap = sched.DefaultPowerCap(400)
	return Job{Workload: w, Strategy: s, Config: core.DefaultConfig()}
}

// keyed returns the four values Job.key encodes, addressably.
func keyed(j *Job) []reflect.Value {
	return []reflect.Value{
		reflect.ValueOf(&j.Strategy).Elem(),
		reflect.ValueOf(&j.Config.Node).Elem(),
		reflect.ValueOf(&j.Config.Net).Elem(),
		reflect.ValueOf(&j.Config.MPI).Elem(),
	}
}

// perturb walks v in a fixed order and changes its target-th perturbable
// point, counting points in *n: every leaf, and the length of every
// string, slice and map. Along the way it gives each empty slice and map
// one zero element and unshares every slice, so each element type is
// reached and no two points alias. It fails the test at a kind the key
// has no encoding for.
func perturb(t *testing.T, v reflect.Value, n *int, target int) {
	hit := func() bool { *n++; return *n-1 == target }
	switch v.Kind() {
	case reflect.Bool:
		if hit() {
			v.SetBool(!v.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if hit() {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if hit() {
			v.SetUint(v.Uint() + 1)
		}
	case reflect.Float32, reflect.Float64:
		if hit() {
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		}
	case reflect.String:
		if hit() {
			v.SetString(v.String() + "x")
		}
	case reflect.Slice:
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		if c.Len() == 0 {
			c = reflect.Append(c, reflect.Zero(v.Type().Elem()))
		}
		v.Set(c)
		if hit() {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return
		}
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			perturb(t, v.Index(i), n, target)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			perturb(t, v.Field(i), n, target)
		}
	case reflect.Map:
		c := reflect.MakeMap(v.Type())
		for it := v.MapRange(); it.Next(); {
			c.SetMapIndex(it.Key(), it.Value())
		}
		if c.Len() == 0 {
			c.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
		}
		v.Set(c)
		keys := v.MapKeys()
		slices.SortFunc(keys, func(x, y reflect.Value) int {
			return strings.Compare(fmt.Sprint(x.Interface()), fmt.Sprint(y.Interface()))
		})
		if hit() {
			v.SetMapIndex(keys[0], reflect.Value{})
			return
		}
		for _, k := range keys {
			kc := reflect.New(k.Type()).Elem()
			kc.Set(k)
			ec := reflect.New(v.Type().Elem()).Elem()
			ec.Set(v.MapIndex(k))
			before := *n
			perturb(t, kc, n, target)
			perturb(t, ec, n, target)
			if before <= target && target < *n {
				v.SetMapIndex(k, reflect.Value{})
				v.SetMapIndex(kc, ec)
			}
		}
	default:
		t.Fatalf("%s: kind %s has no key encoding", v.Type(), v.Kind())
	}
}

// TestKeyDistinguishesEveryLeaf changes each leaf and each length
// reachable from the keyed strategy and configs, one at a time, and
// requires a key of its own for every change.
func TestKeyDistinguishesEveryLeaf(t *testing.T) {
	points := func(target int) (Job, int) {
		j := keyedJob(t)
		n := 0
		for _, v := range keyed(&j) {
			perturb(t, v, &n, target)
		}
		return j, n
	}
	base, total := points(-1)
	if total < 60 {
		t.Fatalf("walked %d points, want the keyed configs' 60 or more", total)
	}
	k0, ok := base.Key()
	if !ok {
		t.Fatal("base job not cacheable")
	}
	seen := map[string]int{k0: -1}
	for i := range total {
		j, _ := points(i)
		k, ok := j.Key()
		if !ok {
			t.Fatalf("point %d: not cacheable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("point %d shares its key with point %d (-1: the unperturbed job)", i, prev)
		}
		seen[k] = i
	}
}

// TestKeyRefusesUnencodableKinds: a keyed value holding a kind with no
// defined encoding panics instead of being skipped.
func TestKeyRefusesUnencodableKinds(t *testing.T) {
	x := 1
	for _, v := range []any{
		struct{ P *int }{&x},
		struct{ F func() }{func() {}},
		struct{ I any }{1},
		struct{ C chan int }{make(chan int)},
		[]*int{nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T encoded without panicking", v)
				}
			}()
			appendValue(nil, reflect.ValueOf(v))
		}()
	}
}

// TestKeyIsCanonical: a key depends on the job's value only. Map
// iteration order and insertion history do not move it, nil and empty
// maps share it, and it is the same in every process: the pinned key
// below changes only when the preimage does.
func TestKeyIsCanonical(t *testing.T) {
	j := keyedJob(t)
	var k0 string
	for i := range 50 {
		m := map[int]dvs.MHz{}
		for n := 100; n >= 0; n-- {
			m[(n*7+i)%101] = 600
		}
		for n := range 101 {
			m[n] = dvs.MHz(600 + n)
		}
		delete(m, 5)
		m[5] = 605
		j.Strategy.PerNode = m
		k, _ := j.Key()
		if i == 0 {
			k0 = k
		} else if k != k0 {
			t.Fatalf("pass %d: key %s, first pass %s", i, k, k0)
		}
	}
	j.Strategy.PerNode = nil
	kNil, _ := j.Key()
	j.Strategy.PerNode = map[int]dvs.MHz{}
	if kEmpty, _ := j.Key(); kEmpty != kNil {
		t.Fatalf("empty map keyed %s, nil map %s", kEmpty, kNil)
	}

	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	const want = "f682c68a16f2792654ea148ba6f7e99562c5f273fbd05fff66adaa2fe9f2c29c"
	if k, _ := (Job{Workload: w, Strategy: core.External(600), Config: core.DefaultConfig()}).Key(); k != want {
		t.Fatalf("FT.S.2 at 600 MHz keys to %s, pinned %s: the preimage changed", k, want)
	}
}

// TestKeyAllocBudget pins a key's cost: the preimage stays on the stack
// and the hex string is the only allocation.
func TestKeyAllocBudget(t *testing.T) {
	j := keyedJob(t)
	j.Strategy.PerNode = nil
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			j.Key()
		}
	})
	if a, by := res.AllocsPerOp(), res.AllocedBytesPerOp(); a > 2 || by > 256 {
		t.Fatalf("Job.Key: %d allocs, %d B per call; budget 2 and 256 B", a, by)
	}
}
