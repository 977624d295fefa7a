package serve

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Exposition collects Prometheus samples family by family and renders
// the text exposition format (version 0.0.4): samples that arrive
// interleaved — per strategy, per replica — print under one HELP/TYPE
// pair, in order of first appearance; a family nothing sampled is not
// declared. Counters carry the _total suffix; anything else is a gauge.
type Exposition struct {
	order []string
	text  map[string]*strings.Builder
}

// NewExposition starts a /metrics body with the two families every
// backend leads with.
func NewExposition(modelName string, uptimeS float64) *Exposition {
	x := &Exposition{text: map[string]*strings.Builder{}}
	x.Sample("vgend_info", "Build/model identity (value is always 1).", 1, "model", modelName)
	x.Sample("vgend_uptime_seconds", "Seconds since the server started.", uptimeS)
	return x
}

// Sample appends one sample of a family; labels alternate name, value.
// It is the explicit path, for the few families whose labels or value
// are not a struct field's own.
func (x *Exposition) Sample(family, help string, v any, labels ...string) {
	b := x.text[family]
	if b == nil {
		b = &strings.Builder{}
		x.text[family] = b
		x.order = append(x.order, family)
		typ := "gauge"
		if strings.HasSuffix(family, "_total") {
			typ = "counter"
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
	}
	b.WriteString(family)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(b, "%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	fmt.Fprintf(b, " %v\n", v)
}

// Render writes the collected families.
func (x *Exposition) Render(w io.Writer) {
	for _, family := range x.order {
		io.WriteString(w, x.text[family].String())
	}
}

// Struct appends every tagged field of a metrics struct (the tag scheme
// is documented on Metrics), each sample under the given labels.
func (x *Exposition) Struct(v any, labels ...string) {
	x.walk(reflect.ValueOf(v), "prom", labels)
}

// walk is the one reflection walker behind Struct. tag names the struct
// tag families are read from: "prom", until a nested struct field says
// families:"replica" and its fields are exported by their replica tag.
func (x *Exposition) walk(v reflect.Value, tag string, labels []string) {
	for i := 0; i < v.NumField(); i++ {
		sf, fv := v.Type().Field(i), v.Field(i)
		if strings.HasSuffix(sf.Tag.Get("json"), ",omitempty") && fv.IsZero() {
			continue
		}
		family, help := sf.Tag.Get(tag), sf.Tag.Get("help")
		with := func(value string) []string {
			return append(labels[:len(labels):len(labels)], sf.Tag.Get("label"), value)
		}
		// emit renders the field or one element of it: a struct by its
		// own tags, anything else as a sample of the field's family.
		emit := func(e reflect.Value, under []string) {
			if e.Kind() == reflect.Struct {
				x.walk(e, cmp.Or(sf.Tag.Get("families"), tag), under)
			} else if family != "" {
				x.Sample(family, help, e.Interface(), under...)
			}
		}
		switch fv.Kind() {
		case reflect.String:
			if family != "" {
				x.Sample(family, help, 1, with(fv.String())...)
			}
		case reflect.Map:
			keys := fv.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
			for _, k := range keys {
				emit(fv.MapIndex(k), with(k.String()))
			}
		case reflect.Slice:
			for j := 0; j < fv.Len(); j++ {
				e, name := fv.Index(j), strconv.Itoa(j+1)
				if e.Kind() == reflect.Struct {
					name = e.FieldByName("Name").String()
				} else if j == fv.Len()-1 {
					name += "+"
				}
				emit(e, with(name))
			}
		default:
			emit(fv, labels)
		}
	}
}

// Aggregate folds per-replica engine snapshots into one fleet-wide
// engine-shaped snapshot by the fields' agg tags (see Metrics): sums and
// hottest-replica maxima, then the rates derived over the folded sums
// exactly as an engine derives its own.
func Aggregate(ms []Metrics) Metrics {
	a := Metrics{PerStrategy: map[string]StrategyMetrics{}}
	for _, m := range ms {
		fold(reflect.ValueOf(&a).Elem(), reflect.ValueOf(m), "")
	}
	a.derive()
	return a
}

// fold accumulates s into d under one agg rule. The default sums:
// numbers add, slices element-wise (growing d), maps key-wise, structs
// field by field under each field's own rule. d never aliases s.
func fold(d, s reflect.Value, agg string) {
	switch {
	case agg == "derived":
	case agg == "max":
		if d.CanFloat() && d.Float() < s.Float() || d.CanInt() && d.Int() < s.Int() {
			d.Set(s)
		}
	case d.CanUint():
		d.SetUint(d.Uint() + s.Uint())
	case d.CanInt():
		d.SetInt(d.Int() + s.Int())
	case d.CanFloat():
		d.SetFloat(d.Float() + s.Float())
	case d.Kind() == reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			fold(d.Field(i), s.Field(i), d.Type().Field(i).Tag.Get("agg"))
		}
	case d.Kind() == reflect.Slice:
		if grow := s.Len() - d.Len(); grow > 0 {
			d.Set(reflect.AppendSlice(d, reflect.MakeSlice(d.Type(), grow, grow)))
		}
		for j := 0; j < s.Len(); j++ {
			fold(d.Index(j), s.Index(j), "")
		}
	case d.Kind() == reflect.Map:
		if d.IsNil() {
			d.Set(reflect.MakeMap(d.Type()))
		}
		for it := s.MapRange(); it.Next(); {
			sum := reflect.New(d.Type().Elem()).Elem()
			if cur := d.MapIndex(it.Key()); cur.IsValid() {
				sum.Set(cur)
			}
			fold(sum, it.Value(), "")
			d.SetMapIndex(it.Key(), sum)
		}
	}
}

// wantsPrometheus reports whether the request asked for the text
// exposition format: ?format=prometheus, or an Accept header that
// looks like a Prometheus scraper's (OpenMetrics, or text/plain when
// the client did not also ask for JSON — axios-style defaults of
// "application/json, text/plain, */*" keep the JSON shape). The JSON
// shape stays the default.
func wantsPrometheus(format, accept string) bool {
	if format == "prometheus" {
		return true
	}
	if format != "" {
		return false
	}
	accept = strings.ToLower(accept)
	if strings.Contains(accept, "openmetrics") {
		return true
	}
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}
