package main

import (
	"strings"

	"putget/internal/sim"
)

// aggObserver is a sim.Observer that keeps, per (component, kind), a span
// count and the summed virtual duration, and per (component, metric) the
// largest sample. Component names are folded by replacing digit runs
// with '#' ("n17.gpu" -> "n#.gpu"), so memory is bounded by the number of
// distinct name shapes, not by ranks, cables or spans. Only spans still
// open are held individually.
type aggObserver struct {
	open    map[sim.SpanID]openSpan
	spans   map[aggKey]*spanAgg
	metrics map[aggKey]float64
	names   map[string]string // component name -> folded shape
}

type aggKey struct{ comp, name string }

type openSpan struct {
	key aggKey
	at  sim.Time
}

type spanAgg struct {
	count uint64
	dur   sim.Duration
}

func newAggObserver() *aggObserver {
	return &aggObserver{
		open:    map[sim.SpanID]openSpan{},
		spans:   map[aggKey]*spanAgg{},
		metrics: map[aggKey]float64{},
		names:   map[string]string{},
	}
}

// fold returns comp with every digit run replaced by '#'.
func (o *aggObserver) fold(comp string) string {
	if f, ok := o.names[comp]; ok {
		return f
	}
	var b strings.Builder
	inDigits := false
	for _, r := range comp {
		if r >= '0' && r <= '9' {
			if !inDigits {
				b.WriteByte('#')
			}
			inDigits = true
			continue
		}
		inDigits = false
		b.WriteRune(r)
	}
	f := b.String()
	// Distinct raw names grow with ranks and cables; keep the memo small.
	if len(o.names) < 4096 {
		o.names[comp] = f
	}
	return f
}

func (o *aggObserver) SpanOpen(id sim.SpanID, at sim.Time, comp, kind string, _ []sim.Attr) {
	o.open[id] = openSpan{key: aggKey{o.fold(comp), kind}, at: at}
}

func (o *aggObserver) SpanClose(id sim.SpanID, at sim.Time) {
	s, ok := o.open[id]
	if !ok {
		return
	}
	delete(o.open, id)
	a := o.spans[s.key]
	if a == nil {
		a = &spanAgg{}
		o.spans[s.key] = a
	}
	a.count++
	a.dur += at.Sub(s.at)
}

func (o *aggObserver) MetricSample(_ sim.Time, comp, name string, v float64) {
	k := aggKey{o.fold(comp), name}
	if cur, ok := o.metrics[k]; !ok || v > cur {
		o.metrics[k] = v
	}
}

// Shutdown drops spans left open by a torn-down simulation; span ids
// restart with the next cell's engine.
func (o *aggObserver) Shutdown(sim.Time) {
	for id := range o.open {
		delete(o.open, id)
	}
}

// meanUs returns the mean virtual duration in microseconds of the spans
// of one kind on components whose folded name is comp.
func (o *aggObserver) meanUs(comp, kind string) float64 {
	a := o.spans[aggKey{comp, kind}]
	if a == nil || a.count == 0 {
		return 0
	}
	return a.dur.Microseconds() / float64(a.count)
}

// maxMetric returns the largest sample of a metric over components whose
// folded name ends with suffix.
func (o *aggObserver) maxMetric(suffix, name string) float64 {
	m := 0.0
	for k, v := range o.metrics {
		if k.name == name && strings.HasSuffix(k.comp, suffix) && v > m {
			m = v
		}
	}
	return m
}
