package tracing

import (
	"encoding/json"
	"fmt"
	"io"
)

// htmlPage is the self-contained timeline viewer: the trace is embedded as
// a JSON data block and a small script lays the spans out as one swimlane
// per process (plus the global faults lane), colored by kind, with instant
// events as markers and a hover readout showing span kind, round, Lamport
// clocks and the wait span's reception record. No external assets, so the
// file opens anywhere a browser does — including air-gapped runs.
const htmlPage = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>ssfd trace — %s/%s n=%d t=%d</title>
<style>
  body { font: 13px/1.4 system-ui, sans-serif; margin: 1rem; background: #fafafa; color: #222; }
  h1 { font-size: 1.1rem; }
  #lanes { position: relative; border: 1px solid #ccc; background: #fff; overflow-x: auto; }
  .lane { position: relative; height: 56px; border-bottom: 1px solid #eee; }
  .lane .label { position: absolute; left: 4px; top: 2px; color: #666; font-size: 11px; z-index: 2; }
  .span { position: absolute; box-sizing: border-box; border: 1px solid rgba(0,0,0,.25); border-radius: 2px; overflow: hidden; font-size: 10px; padding: 0 2px; white-space: nowrap; cursor: default; }
  .span.round   { top: 18px; height: 34px; background: #eceff1; }
  .span.run     { top: 14px; height: 42px; background: none; border-style: dashed; }
  .span.send    { top: 22px; height: 12px; background: #90caf9; }
  .span.wait    { top: 22px; height: 12px; background: #ffe082; }
  .span.compute { top: 22px; height: 12px; background: #a5d6a7; }
  .span.partition { top: 22px; height: 26px; background: #ef9a9a; }
  .span.blackhole { top: 22px; height: 26px; background: #b0bec5; }
  .pt { position: absolute; top: 36px; width: 7px; height: 7px; margin-left: -3px; border-radius: 50%%; z-index: 3; }
  .pt.arrive { background: #1976d2; }
  .pt.decide { background: #2e7d32; width: 9px; height: 9px; }
  .pt.crash  { background: #c62828; }
  .pt.suspect { background: #ef6c00; }
  .pt.retract { background: #8d6e63; }
  #tip { position: fixed; display: none; background: #263238; color: #eceff1; padding: 4px 8px; border-radius: 3px; font-size: 11px; pointer-events: none; z-index: 10; max-width: 28rem; }
  #legend span { display: inline-block; margin-right: 1em; }
  #legend i { display: inline-block; width: 10px; height: 10px; margin-right: 4px; border: 1px solid rgba(0,0,0,.25); }
</style>
</head>
<body>
<h1>ssfd trace — %s/%s n=%d t=%d (%s timebase)</h1>
<div id="legend">
  <span><i style="background:#90caf9"></i>send</span>
  <span><i style="background:#ffe082"></i>wait</span>
  <span><i style="background:#a5d6a7"></i>compute</span>
  <span><i style="background:#ef9a9a"></i>partition</span>
  <span><i style="background:#b0bec5"></i>blackhole</span>
  <span><i style="background:#1976d2;border-radius:50%%"></i>arrive</span>
  <span><i style="background:#2e7d32;border-radius:50%%"></i>decide</span>
  <span><i style="background:#c62828;border-radius:50%%"></i>crash</span>
  <span><i style="background:#ef6c00;border-radius:50%%"></i>suspect</span>
</div>
<div id="lanes"></div>
<div id="tip"></div>
<script type="application/json" id="ssfd-trace-data">%s</script>
<script>
(function () {
  var data = JSON.parse(document.getElementById('ssfd-trace-data').textContent);
  var spans = data.spans || [], points = data.points || [];
  var tmax = 1;
  spans.forEach(function (s) { if (s.end > tmax) tmax = s.end; });
  points.forEach(function (p) { if (p.ts > tmax) tmax = p.ts; });
  var width = Math.max(900, document.body.clientWidth - 40);
  var x = function (t) { return (t / tmax) * (width - 70) + 60; };
  var fmt = data.timebase === 'synthetic'
    ? function (t) { return (t / 1e6) + 'u'; }
    : function (t) { return (t / 1e6).toFixed(3) + 'ms'; };

  var procs = [];
  spans.concat(points.map(function (p) { return { proc: p.proc }; })).forEach(function (s) {
    if (s.proc && procs.indexOf(s.proc) < 0) procs.push(s.proc);
  });
  procs.sort(function (a, b) { return a - b; });

  var lanes = document.getElementById('lanes');
  lanes.style.width = width + 'px';
  var laneOf = {};
  procs.concat([0]).forEach(function (p) {
    var el = document.createElement('div');
    el.className = 'lane';
    el.innerHTML = '<span class="label">' + (p ? 'p' + p : 'faults') + '</span>';
    lanes.appendChild(el);
    laneOf[p] = el;
  });

  var tip = document.getElementById('tip');
  function hover(el, text) {
    el.addEventListener('mousemove', function (e) {
      tip.style.display = 'block';
      tip.style.left = (e.clientX + 12) + 'px';
      tip.style.top = (e.clientY + 12) + 'px';
      tip.textContent = text;
    });
    el.addEventListener('mouseleave', function () { tip.style.display = 'none'; });
  }

  spans.forEach(function (s) {
    var el = document.createElement('div');
    el.className = 'span ' + s.kind;
    el.style.left = x(s.start) + 'px';
    el.style.width = Math.max(1, x(s.end) - x(s.start)) + 'px';
    if (s.kind === 'round') el.textContent = 'r' + s.round;
    var txt = s.kind + (s.round ? ' r' + s.round : '') +
      ' [' + fmt(s.start) + ', ' + fmt(s.end) + ')' +
      ' clocks ' + s.c0 + '→' + s.c1;
    if (s.peers) txt += ' peers=[' + s.peers.join(',') + ']';
    hover(el, txt);
    (laneOf[s.proc] || laneOf[0]).appendChild(el);
  });
  points.forEach(function (p) {
    var el = document.createElement('div');
    el.className = 'pt ' + p.kind;
    el.style.left = x(p.ts) + 'px';
    var txt = p.kind + (p.from ? ' p' + p.from : '') + (p.round ? ' r' + p.round : '') +
      ' @ ' + fmt(p.ts) + ' clock ' + p.clock;
    if (p.value !== undefined && p.value !== null) txt += ' value=' + p.value;
    hover(el, txt);
    (laneOf[p.proc] || laneOf[0]).appendChild(el);
  });
})();
</script>
</body>
</html>
`

// htmlSpan / htmlPoint are the embedded data-block encodings.
type htmlSpan struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Proc   int    `json:"proc"`
	Kind   string `json:"kind"`
	Round  int    `json:"round,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	C0     int64  `json:"c0"`
	C1     int64  `json:"c1"`
	Peers  []int  `json:"peers,omitempty"`
}

type htmlPoint struct {
	Proc  int    `json:"proc"`
	Kind  string `json:"kind"`
	Round int    `json:"round,omitempty"`
	From  int    `json:"from,omitempty"`
	TS    int64  `json:"ts"`
	Clock int64  `json:"clock"`
	Value *int64 `json:"value,omitempty"`
}

type htmlData struct {
	Algorithm string      `json:"algorithm"`
	Model     string      `json:"model"`
	N         int         `json:"n"`
	T         int         `json:"t"`
	Timebase  string      `json:"timebase"`
	Spans     []htmlSpan  `json:"spans"`
	Points    []htmlPoint `json:"points"`
}

// WriteHTML renders the trace as a self-contained HTML timeline.
func (t *Trace) WriteHTML(w io.Writer) error {
	data := htmlData{
		Algorithm: t.Algorithm, Model: t.Model, N: t.N, T: t.T, Timebase: t.Timebase,
		Spans:  make([]htmlSpan, 0, len(t.Spans)),
		Points: make([]htmlPoint, 0, len(t.Points)),
	}
	for i := range t.Spans {
		sp := &t.Spans[i]
		data.Spans = append(data.Spans, htmlSpan{
			ID: int64(sp.ID), Parent: int64(sp.Parent), Proc: sp.Proc, Kind: sp.Kind,
			Round: sp.Round, Start: sp.Start, End: sp.End,
			C0: sp.StartClock, C1: sp.EndClock, Peers: sp.Peers,
		})
	}
	for i := range t.Points {
		pt := &t.Points[i]
		data.Points = append(data.Points, htmlPoint{
			Proc: pt.Proc, Kind: pt.Kind, Round: pt.Round, From: pt.From,
			TS: pt.TS, Clock: pt.Clock, Value: pt.Value,
		})
	}
	blob, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, htmlPage,
		t.Algorithm, t.Model, t.N, t.T,
		t.Algorithm, t.Model, t.N, t.T, t.Timebase,
		blob)
	return err
}
