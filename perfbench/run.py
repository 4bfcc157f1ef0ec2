#!/usr/bin/env python3
"""End-to-end benchmark of the codecomp toolchain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the command-line tools into
.bench_build/ (CMake, Release) on first use, prepares the workload's
inputs from the seed, then drives the tools as a user would for S
seconds in a closed loop: one client, each operation starts when the
previous one has finished. Every operation's outputs are checked. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones. With
--trace 1 the tools are also asked for their own statistics, the
benchmark records a span around every call into a tool, the metrics are
the per_layer ones, and the spans are written as Chrome trace-event
JSON to .bench_run/trace-<workload>-<seed>.json.

Workloads (see WORKLOADS at the bottom and perfbench/README.md):
  toolchain_paper
             the eight built-in programs at paper scale (minicc --scale
             16): minicc, ccompress, then ccrun on the native program and
             on the compressed image
  autotune   ccautotune budget searches over four built-in programs,
             with a two-level I-cache
  farm_warm  ccfarm on one program's share of the starter corpus at a
             time, against a warmed on-disk cache
"""

import argparse
import contextlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = '.bench_build'
RUN_DIR = '.bench_run'
TOOLS = ('minicc', 'ccompress', 'ccrun', 'ccfarm', 'ccautotune')
# One worker thread per tool: on a shared host, parallel sections make
# the wall time depend on what else runs on the other cores.
JOBS = '1'
# setup_s is the median over at least SETUP_REPEATS set-ups, and over as
# many more (up to SETUP_MAX) as it takes to spend SETUP_SECONDS setting up.
SETUP_REPEATS, SETUP_MAX, SETUP_SECONDS = 3, 9, 4.0
TOOL_TIMEOUT_S = 60
# The speed probe: fixed work outside the program (zlib on seeded text)
# in a fresh interpreter, so that it starts as a tool does.
PROBE = """
import random, zlib
rng = random.Random(1)
words = [bytes(rng.choice(b'abcdefgh') for _ in range(6)) for _ in range(4000)]
zlib.compress(b' '.join(rng.choice(words) for _ in range(60000)), 9)
"""
PROBE_MS = 75.0     # the probe's fastest time on an idle 2.0 GHz Xeon vCPU
PROBE_SHARE = 0.15  # probe for at most this share of the time in tools

PASS_METRICS = {'Enumerate': 'enumerate_ms', 'Select': 'select_ms',
                'RankAssign': 'rank_assign_ms', 'Layout': 'layout_ms',
                'BranchPatch': 'branch_patch_ms', 'Emit': 'emit_ms'}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


class OpFailure(Exception):
    """One measured operation failed or produced a wrong output."""


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = {'name': name, 'id': len(self.spans),
                  'parent': self._open[-1] if self._open else None,
                  'start': time.perf_counter()}
        self.spans.append(record)
        self._open.append(record['id'])
        try:
            yield
        finally:
            self._open.pop()
            record['end'] = time.perf_counter()

    def write(self, path):
        origin = self.spans[0]['start'] if self.spans else 0.0
        events = [{'name': s['name'], 'ph': 'X', 'pid': 1, 'tid': 1,
                   'ts': round(1e6 * (s['start'] - origin), 3),
                   'dur': round(1e6 * (s['end'] - s['start']), 3),
                   'args': {'id': s['id'], 'parent': s['parent']}}
                  for s in self.spans]
        with open(path, 'w') as f:
            json.dump({'traceEvents': events}, f)


def build():
    """Configure once, then bring the tools up to date."""
    if not (os.path.isfile('CMakeLists.txt') and os.path.isdir('src')):
        raise BenchError('run from the repository root: no CMakeLists.txt '
                         'and src/ here to build the tools from')
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
        steps.append(['cmake', '-S', '.', '-B', BUILD_DIR,
                      '-DCMAKE_BUILD_TYPE=Release'])
    steps.append(['cmake', '--build', BUILD_DIR, '-j',
                  str(min(4, os.cpu_count() or 1)), '--target', *TOOLS])
    log_path = os.path.join(BUILD_DIR, 'perfbench-build.log')
    with open(log_path, 'w') as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError('build failed: ' + ' '.join(step))


def metric_units(kind):
    """Name -> unit of the 'end_to_end' or 'per_layer' metrics, in the
    order BENCHMARK.json lists them."""
    with open('BENCHMARK.json') as f:
        return {m['name']: m['unit'] for m in json.load(f)[kind]}


def tool_path(name):
    return os.path.join(BUILD_DIR, 'tools', name)


def starter_corpus():
    """Job ids (program/scheme/strategy) of ccfarm's starter corpus."""
    proc = subprocess.run([tool_path('ccfarm'), '--list'],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, timeout=TOOL_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0 or not proc.stdout.split():
        raise BenchError('ccfarm --list failed: ' + proc.stderr[-500:])
    return proc.stdout.split()


def builtin_programs():
    """The built-in programs, in the starter corpus's order."""
    return list(dict.fromkeys(job.split('/')[0] for job in starter_corpus()))


class Runner:
    """Runs tools, records each call as a span, and logs (span name,
    wall seconds) per call."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls = []

    def __call__(self, span, name, *args):
        start = time.perf_counter()
        with self.tracer.span(span):
            proc = subprocess.run([tool_path(name), *args],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  stdin=subprocess.DEVNULL,
                                  timeout=TOOL_TIMEOUT_S, text=True)
        seconds = time.perf_counter() - start
        self.calls.append((span, seconds))
        if proc.returncode != 0:
            raise OpFailure('{} {} exited {}: {}'.format(
                name, ' '.join(args), proc.returncode, proc.stderr[-500:]))
        return proc, seconds


def probe():
    """Seconds one run of the speed probe takes."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, '-S', '-c', PROBE],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE,
                              stdin=subprocess.DEVNULL,
                              timeout=TOOL_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError('the speed probe timed out')
    if proc.returncode != 0:
        raise BenchError('the speed probe failed: ' + proc.stderr[-500:])
    return time.perf_counter() - start


def read(path, mode='r'):
    with open(path, mode) as f:
        return f.read()


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_layers(pipeline, layers):
    """Add one pipeline's per-pass times and candidate count to layers."""
    for p in pipeline.get('passes', []):
        metric = PASS_METRICS.get(p['name'])
        if metric:
            layers[metric] = layers.get(metric, 0.0) + p['millis']
        if p['name'] == 'Enumerate':
            layers['candidates'] = (layers.get('candidates', 0) +
                                    p.get('counters', {}).get('candidates',
                                                              0))


class Toolchain:
    """minicc -> ccompress -> ccrun on the built-in programs.

    The inputs are every built-in program at paper scale (minicc --scale
    16, about 280k instructions each); the seed only sets their order.
    Set-up compiles and compresses each input and runs the native
    program for the reference output. An operation does it all again
    and also runs the compressed image: program and image must be
    byte-identical to the set-up references, and both processors must
    print the set-up output.
    """

    SCALE = '16'

    def __init__(self, seed, run):
        self.run = run
        self.keys = builtin_programs()
        random.Random(seed).shuffle(self.keys)

    def compile(self, key, out):
        self.run('minicc', 'minicc', '--benchmark', key, '--scale', self.SCALE,
                 '-o', out)

    def setup(self, d):
        self.dir = d
        self.outputs = {}
        for key in self.keys:
            base = os.path.join(d, key)
            self.compile(key, base + '.ccp')
            self.run('ccompress', 'ccompress', base + '.ccp', '-o',
                     base + '.cci', '--jobs', JOBS, '--stats-json',
                     base + '.json')
            proc, _ = self.run('ccrun_native', 'ccrun', base + '.ccp')
            self.outputs[key] = proc.stdout

    def check_setup(self):
        self.ratios = [json.loads(read(os.path.join(self.dir, key + '.json')))
                       [0]['ratio'] for key in self.keys]
        for key, output in self.outputs.items():
            if not output.strip():
                raise BenchError(key + ': the program printed nothing')

    def op(self, key):
        base = os.path.join(self.dir, key)
        trace = self.run.tracer.enabled
        layers = {}
        self.compile(key, base + '.op.ccp')
        extra = ['--stats-json', base + '.op.json'] if trace else []
        self.run('ccompress', 'ccompress', base + '.op.ccp', '-o',
                 base + '.op.cci', '--jobs', JOBS, *extra)
        stats = ['--stats'] if trace else []
        native, t_native = self.run('ccrun_native', 'ccrun',
                                    base + '.op.ccp', *stats)
        packed, t_packed = self.run('ccrun_compressed', 'ccrun',
                                    base + '.op.cci', *stats)

        for suffix in ('.ccp', '.cci'):
            if read(base + '.op' + suffix, 'rb') != read(base + suffix, 'rb'):
                raise OpFailure('{}: {} differs from the set-up reference'
                                .format(key, suffix))
        expected = self.outputs[key]
        for label, proc in (('native', native), ('compressed', packed)):
            if proc.stdout != expected:
                raise OpFailure('{}: {} output {!r}, expected {!r}'.format(
                    key, label, proc.stdout[:80], expected))
        # Per-layer statistics are read leniently: a tool that stops
        # printing one leaves that metric at 0 instead of failing the run.
        if trace:
            record = json.loads(read(base + '.op.json'))[0]
            pass_layers(record.get('pipeline', {}), layers)
            for metric, proc, seconds in (
                    ('native_mips', native, t_native),
                    ('compressed_mips', packed, t_packed)):
                match = re.search(r'CCRUN_JSON: (\{.*\})', proc.stderr)
                if match:
                    insts = json.loads(match.group(1)).get('instructions', 0)
                    layers[metric] = insts / seconds / 1e6
        return layers


class Autotune:
    """ccautotune budget searches, one built-in program per operation.

    The seed draws two of the three budgets and the program order. The
    largest budget is fixed so that pruning, and with it the work of a
    search, is the same for every seed. Every point is timed with an L2
    behind its L1, so the two-level fetch and stall path runs. An
    operation's JSON artifact must be byte-identical to the set-up
    run's, whose frontier and winners are checked for consistency once.
    """

    PROGRAMS = ('compress', 'ijpeg', 'li', 'vortex')
    MAX_BUDGET = 16384
    L2 = '8192:32:2'    # holds either L1 geometry of the search

    def __init__(self, seed, run):
        self.run = run
        rng = random.Random(seed)
        self.budgets = [rng.randrange(1100, 3000), rng.randrange(3000, 8000),
                        self.MAX_BUDGET]
        self.keys = list(self.PROGRAMS)
        rng.shuffle(self.keys)

    def argv(self, key, out):
        args = ['--workload', key, '--schemes', 'nibble,opfac',
                '--strategies', 'greedy', '--dict-caps', '16,256',
                '--cache-geoms', '1024:32:1,4096:32:2', '--l2', self.L2,
                '--jobs', JOBS, '--json', out]
        for budget in self.budgets:
            args += ['--budget', str(budget)]
        return args

    def setup(self, d):
        self.dir = d
        for key in self.keys:
            self.run('ccautotune', 'ccautotune',
                     *self.argv(key, os.path.join(d, key + '.json')))

    def check_setup(self):
        self.ratios = []
        for key in self.keys:
            doc = json.loads(read(os.path.join(self.dir, key + '.json')))
            (result,) = doc['workloads']
            points = {p['id']: p for p in result['points']}
            frontier = [points[i] for i in result['frontier']]
            for a, b in zip(frontier, frontier[1:]):
                if not (a['on_chip_bytes'] < b['on_chip_bytes'] and
                        a['cycles'] > b['cycles']):
                    raise BenchError(key + ': frontier is not monotone')
            for winner in result['winners']:
                if winner['on_chip_bytes'] > winner['budget']:
                    raise BenchError(key + ': winner over budget')
            native = [p['total_bytes'] for p in points.values()
                      if p['scheme'] == 'native'][0]
            packed = [p['total_bytes'] / native for p in points.values()
                      if p['scheme'] != 'native']
            self.ratios.append(statistics.fmean(packed))

    def op(self, key):
        out = os.path.join(self.dir, key + '.op.json')
        proc, _ = self.run('ccautotune', 'ccautotune', *self.argv(key, out))
        if read(out) != read(os.path.join(self.dir, key + '.json')):
            raise OpFailure(key + ': artifact differs from the reference')
        layers = {}
        if self.run.tracer.enabled:
            match = re.search(r'pipeline cache: (\d+) enum hits, (\d+) '
                              r'select hits; (\d+) ms', proc.stdout)
            if match:
                layers['enum_hits'] = int(match.group(1))
                layers['select_hits'] = int(match.group(2))
                layers['autotune_search_ms'] = int(match.group(3))
        return layers


class Farm:
    """ccfarm over the starter corpus with an on-disk pipeline cache.

    The starter corpus is every built-in program under every registered
    scheme and both main strategies. One operation runs one program's
    share of it (ccfarm --workloads P), so a run samples each program
    many times; the seed orders the programs. Set-up fills one cache
    directory and every operation reads it back, so every job is a
    persistent cache hit. An operation's deterministic results must be
    byte-identical to the set-up run's.
    """

    def __init__(self, seed, run):
        self.run = run
        self.corpus = starter_corpus()
        self.keys = builtin_programs()
        random.Random(seed).shuffle(self.keys)

    def setup(self, d):
        self.dir = d
        self.cache = os.path.join(d, 'cache') + '/'
        for key in self.keys:
            self.run('ccfarm', 'ccfarm', '--workloads', key, '--jobs', JOBS,
                     '--results', os.path.join(d, key + '.results.json'),
                     '--cache-dir', self.cache)

    def check_setup(self):
        self.ratios = []
        for key in self.keys:
            results = json.loads(read(os.path.join(self.dir,
                                                   key + '.results.json')))
            jobs = {job for job in self.corpus if job.split('/')[0] == key}
            if {r['id'] for r in results} != jobs:
                raise BenchError(key + ': farm results do not match the '
                                 'starter corpus')
            self.ratios += [r['ratio'] for r in results]

    def op(self, key):
        base = os.path.join(self.dir, key)
        report = base + '.report.json'
        extra = ['--report', report] if self.run.tracer.enabled else []
        self.run('ccfarm', 'ccfarm', '--workloads', key, '--jobs', JOBS,
                 '--cache-dir', self.cache, '--results', base + '.op.json',
                 *extra)
        if read(base + '.op.json') != read(base + '.results.json'):
            raise OpFailure(key + ': farm results differ from the reference')
        layers = {}
        if extra:
            doc = json.loads(read(report))
            if doc.get('failures'):
                raise OpFailure(key + ': farm reported failed jobs')
            fields = {'farm_build_ms': 'build_millis',
                      'farm_compress_ms': 'compress_millis',
                      'farm_jobs_per_s': 'jobs_per_second'}
            stats = doc.get('cache_stats', {})
            for metric in ('enum_hits', 'enum_misses', 'select_hits',
                           'select_misses', 'persist_hits',
                           'persist_misses', 'persist_stores'):
                fields[metric] = metric
            for metric, field in fields.items():
                value = doc.get(field, stats.get(field))
                if isinstance(value, (int, float)):
                    layers[metric] = value
            for result in doc.get('results', []):
                pass_layers(result.get('pipeline', {}), layers)
        return layers


WORKLOADS = {
    'toolchain_paper': Toolchain,
    'autotune': Autotune,
    'farm_warm': Farm,
}


def measure(args):
    tracer = Tracer(args.trace == 1)
    run = Runner(tracer)
    workload = WORKLOADS[args.workload](args.seed, run)
    root = os.path.join(RUN_DIR, '{}-{}-{}'.format(args.workload, args.seed,
                                                  os.getpid()))
    try:
        probes = [probe()]
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or (
                len(setup_s) < SETUP_MAX and sum(setup_s) < SETUP_SECONDS):
            d = os.path.join(root, 'setup{}'.format(len(setup_s)))
            os.makedirs(d)
            start = time.perf_counter()
            try:
                with tracer.span('setup'):
                    workload.setup(d)
            except OpFailure as error:
                raise BenchError('set-up failed: {}'.format(error))
            setup_s.append(time.perf_counter() - start)
        workload.check_setup()

        # Per input: seconds spent in tools by each op, each tool call's
        # fastest seconds (an op makes each call once), and each
        # per-layer metric of each op.
        latencies = {key: [] for key in workload.keys}
        fastest = {key: {} for key in workload.keys}
        layers = {key: {} for key in workload.keys}
        attempted = failed = 0
        in_tools_s = 0.0
        deadline = time.perf_counter() + args.seconds
        while attempted == 0 or time.perf_counter() < deadline:
            for key in workload.keys:
                attempted += 1
                calls = len(run.calls)
                start = time.perf_counter()
                try:
                    with tracer.span('op'):
                        op_layers = workload.op(key)
                except (OpFailure, subprocess.TimeoutExpired) as error:
                    failed += 1
                    print('failed: {}'.format(error), file=sys.stderr)
                    continue
                in_tools = sum(seconds for _, seconds in run.calls[calls:])
                latencies[key].append(in_tools)
                in_tools_s += in_tools
                if sum(probes) < PROBE_SHARE * in_tools_s:
                    probes.append(probe())
                for span, seconds in run.calls[calls:]:
                    best = fastest[key]
                    best[span] = min(seconds, best.get(span, seconds))
                if tracer.enabled:
                    op_layers['harness_ms'] = 1e3 * (
                        time.perf_counter() - start - in_tools)
                    for span, seconds in run.calls[calls:]:
                        metric = span + '_ms'
                        op_layers[metric] = (op_layers.get(metric, 0.0) +
                                             1e3 * seconds)
                for metric, value in op_layers.items():
                    layers[key].setdefault(metric, []).append(value)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    if tracer.enabled:
        tracer.write(os.path.join(RUN_DIR, 'trace-{}-{}.json'.format(
            args.workload, args.seed)))

        def per_input_mean(metric):
            """Mean over inputs of the input's median; 0 if unused."""
            medians = [statistics.median(per_op[metric])
                       for per_op in layers.values() if metric in per_op]
            return statistics.fmean(medians) if medians else 0

        units = metric_units('per_layer')
        values = {name: per_input_mean(name) for name in units}
    else:
        units = metric_units('end_to_end')
        # The host's vCPUs run a process up to ~1.8x slower, and how often
        # drifts over minutes. A tool call's fastest time in the run
        # drifts least, and the probe's fastest time drifts with it, so
        # times are given for a host on which the probe takes PROBE_MS.
        scale = PROBE_MS / (1e3 * min(probes))
        best = [sum(calls.values()) for calls in fastest.values() if calls]
        values = {'latency_norm_ms': 1e3 * scale * geomean(best)
                  if best else 0,
                  'size_ratio': geomean(workload.ratios),
                  'setup_s': scale * statistics.median(setup_s)}
        print('fastest tool time {:.2f} ms, speed probe {:.2f} ms ({} runs)'
              .format(1e3 * geomean(best) if best else 0, 1e3 * min(probes),
                      len(probes)), file=sys.stderr)
    metrics = {name: {'value': values[name], 'unit': unit}
               for name, unit in units.items()}
    for key, values in latencies.items():
        if values:
            print('{}: {} ops, median {:.2f} ms'.format(
                key, len(values), 1e3 * statistics.median(values)),
                  file=sys.stderr)
    return {'correct': failed == 0 and all(latencies.values()),
            'attempted': attempted, 'failed': failed, 'metrics': metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        result = measure(args)
    except BenchError as error:
        print('perfbench: {}'.format(error), file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
