//===- perfbench/perfbench.cpp - End-to-end and per-layer benchmark -------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload, checks its outputs and prints its metrics:
//
//   perfbench --workload subjects|live-heap|compile --seed N --seconds S
//             --trace 0|1 [--rev R] [--trace-out FILE] [--mode gofree|go]
//
// A run is set-up (input generation, the correctness legs, one warm-up
// pass) followed by timed passes until S seconds are spent. A pass compiles
// the workload's whole program set (compiler::compile + vm::compileProgram)
// and executes every program once on the VM with one mutator thread. The
// last line of stdout is one JSON object: {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the pass calls each layer's public entry point separately under
// a span, and the metrics are the per-layer ones (medians over passes).
// See README.md for the workloads, seeds and metric definitions.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "escape/Analysis.h"
#include "instrument/FreeInserter.h"
#include "minigo/Frontend.h"
#include "minigo/Lexer.h"
#include "runtime/Heap.h"
#include "support/Diag.h"
#include "support/Rng.h"
#include "vm/Compiler.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace gofree;
using compiler::CompileMode;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up time is measured from here: static initialization runs before
/// main, so this is as close to process start as the program can see.
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

uint64_t nanosBetween(Clock::time_point T0, Clock::time_point T1) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(T1 -
                                                                        T0)
      .count();
}

constexpr double MiB = 1024.0 * 1024.0;

/// The \p Q quantile of \p V, interpolating linearly between ranks.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (double)(V.size() - 1);
  size_t Lo = (size_t)Pos;
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Pos - (double)Lo) * (V[Lo + 1] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  /// Timed passes compile and run in Go mode instead (reference legs for
  /// the GoFree/Go ratios in README.md; the correctness legs are unchanged).
  bool GoMode = false;
  std::string Rev = "unknown";
  /// Where a traced run writes its spans (JSONL); empty keeps them in memory.
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value for " + Flag;
      return false;
    }
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Val.empty();
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0;
    } else if (Flag == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      O.Trace = Val == "1";
    } else if (Flag == "--mode") {
      if (Val != "gofree" && Val != "go") {
        Err = "--mode must be gofree or go";
        return false;
      }
      O.GoMode = Val == "go";
    } else if (Flag == "--rev") {
      O.Rev = Val;
    } else if (Flag == "--trace-out") {
      O.TraceOut = Val;
    } else {
      Err = "unknown flag " + Flag;
      return false;
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace) {
    Err = "need --workload, --seed, --seconds (> 0) and --trace 0|1";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Spans: recorded around every call into a layer, kept in memory, written
// out at the end of a traced run.
//===----------------------------------------------------------------------===//

class SpanLog {
public:
  struct Span {
    const char *Name;
    int Parent; ///< Index of the enclosing span, -1 at top level.
    int Pass;   ///< Timed pass index; -1 for set-up.
    uint64_t StartNs, EndNs;
  };

  void setPass(int P) { Pass = P; }

  int open(const char *Name) {
    Spans.push_back({Name, Open.empty() ? -1 : Open.back(), Pass,
                     nanosBetween(ProcessStart, Clock::now()), 0});
    Open.push_back((int)Spans.size() - 1);
    return Open.back();
  }
  void close(int Id) {
    Spans[(size_t)Id].EndNs = nanosBetween(ProcessStart, Clock::now());
    Open.pop_back();
  }

  /// Summed duration of the spans called \p Name in pass \p P, in ms.
  double totalMs(const char *Name, int P) const {
    uint64_t Ns = 0;
    for (const Span &S : Spans)
      if (S.Pass == P && std::strcmp(S.Name, Name) == 0)
        Ns += S.EndNs - S.StartNs;
    return (double)Ns / 1e6;
  }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\":%zu,\"parent\":%d,\"pass\":%d,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   I, S.Parent, S.Pass, S.Name,
                   (unsigned long long)S.StartNs,
                   (unsigned long long)S.EndNs);
    }
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
  int Pass = -1;
};

/// Records one span when a log is attached; free otherwise.
class SpanScope {
public:
  SpanScope(SpanLog *Log, const char *Name)
      : Log(Log), Id(Log ? Log->open(Name) : -1) {}
  ~SpanScope() {
    if (Log)
      Log->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog *Log;
  int Id;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One program of a workload, with what set-up learned about it.
struct Program {
  std::string Name;
  std::string Source;
  std::string Entry = "main";
  std::vector<int64_t> Args;
  rt::HeapOptions Heap;
  /// Set-up results: the oracle's observables and allocation totals, and
  /// the program's token count (traced runs only).
  bool Usable = false;
  uint64_t Checksum = 0, SinkCount = 0;
  uint64_t AllocedBytes = 0, AllocCount = 0;
  uint64_t Tokens = 0;
};

struct Workload {
  std::vector<Program> Progs;
  /// A pass compiles every program CompileSamples times in a row of
  /// CompileBatch back-to-back compilations each, one timed sample per
  /// batch; sub-millisecond compiles get batches so a sample is steady.
  int CompileSamples = 1;
  int CompileBatch = 1;
  int compilesPerPass() const { return CompileSamples * CompileBatch; }
};

/// The GC-bound workload: a long-lived graph of Nodes, and requests that
/// each allocate a large temporary (freed by GoFree through the large-span
/// path) and an escaping Record that overwrites a slot of a long-lived ring
/// (reclaimable only by the collector). Every collection marks the graph.
const char *LiveHeapSrc = R"go(
type Node struct {
  id    int
  val   int
  left  *Node
  right *Node
}

type Record struct {
  key  int
  sum  int
  node *Node
  data []int
}

func lcg(x int) int {
  return (x*1103515245 + 12345) % 2147483648
}

func buildGraph(n int, seed int) []*Node {
  nodes := make([]*Node, n)
  for i := 0; i < n; i++ {
    nodes[i] = &Node{id: i, val: i*7 + 1, left: nil, right: nil}
  }
  r := seed
  for i := 0; i < n; i++ {
    r = lcg(r)
    nodes[i].left = nodes[r % n]
    r = lcg(r)
    nodes[i].right = nodes[r % n]
  }
  return nodes
}

func serve(req int, nodes []*Node, ring []*Record, tmpLen int,
           recLen int, r int) int {
  tmp := make([]int, tmpLen)
  p := nodes[r % len(nodes)]
  h := 0
  for i := 0; i < len(tmp); i += 256 {
    tmp[i] = p.val + i
    h = (h + tmp[i]) % 1000003
    if tmp[i] % 2 == 0 {
      p = p.left
    } else {
      p = p.right
    }
  }
  data := make([]int, recLen)
  data[0] = h
  data[recLen-1] = req
  ring[req % len(ring)] = &Record{key: req, sum: h, node: p, data: data}
  return h
}

func main(nodes int, requests int, tmpLen int, recLen int, ringLen int,
          seed int) {
  graph := buildGraph(nodes, seed)
  ring := make([]*Record, ringLen)
  r := seed
  total := 0
  for q := 0; q < requests; q++ {
    r = lcg(r)
    total = (total + serve(q, graph, ring, tmpLen, recLen, r)) % 1000000007
  }
  live := 0
  for i := 0; i < ringLen; i++ {
    if ring[i] != nil {
      live = live + ring[i].data[0] % 1009 + ring[i].node.id % 7
    }
  }
  sink(total)
  sink(live)
  sink(graph[seed % nodes].val)
}
)go";

Workload subjectsWorkload(uint64_t Seed) {
  Workload W;
  W.CompileSamples = 4;
  W.CompileBatch = 50;
  for (const workloads::Workload &S : workloads::subjectWorkloads()) {
    Program P;
    P.Name = S.Name;
    P.Source = S.Source;
    P.Entry = S.Entry;
    P.Args = S.Args;
    W.Progs.push_back(std::move(P));
  }
  // The seed rotates the order the six programs run in; their sources and
  // sizes are the paper's defaults.
  std::rotate(W.Progs.begin(),
              W.Progs.begin() + (std::ptrdiff_t)(Seed % W.Progs.size()),
              W.Progs.end());
  return W;
}

Workload liveHeapWorkload(uint64_t Seed) {
  Workload W;
  W.CompileSamples = 4;
  W.CompileBatch = 100;
  Program P;
  P.Name = "live-heap";
  P.Source = LiveHeapSrc;
  // nodes, requests, tmpLen (64 KiB: a large span), recLen, ringLen, seed.
  P.Args = {100000, 12000, 8192, 1024, 512,
            (int64_t)(Rng(Seed).next() % 1000003) + 1};
  P.Heap.Gc.Workers = 2;
  W.Progs.push_back(std::move(P));
  return W;
}

Workload compileWorkload(uint64_t Seed) {
  // Source size in bytes, and main's n: the number of times it runs the
  // whole call chain. The function count is scaled from a sample so every
  // seed gives about the same amount of source; n is set so each program
  // retains about 6 MiB, past the 4 MiB GC floor but short of a second
  // cycle, and so collects exactly once.
  struct Shape {
    size_t Bytes;
    int64_t N;
  };
  const Shape Shapes[] = {
      {300'000, 95}, {700'000, 32}, {1'200'000, 18}, {2'000'000, 11}};
  Workload W;
  W.CompileSamples = 4;
  Rng R(Seed);
  for (const Shape &Sh : Shapes) {
    workloads::SynthOptions SO;
    SO.Seed = R.next();
    SO.StmtsPerFunc = 60;
    SO.NumFuncs = 64;
    size_t Sample = workloads::synthProgram(SO).size();
    SO.NumFuncs = (int)((double)Sh.Bytes / ((double)Sample / SO.NumFuncs));
    Program P;
    P.Name = "synth-" + std::to_string(Sh.Bytes / 1000) + "k";
    P.Source = workloads::synthProgram(SO);
    P.Args = {Sh.N};
    W.Progs.push_back(std::move(P));
  }
  return W;
}

bool makeWorkload(const std::string &Name, uint64_t Seed, Workload &W) {
  if (Name == "subjects")
    W = subjectsWorkload(Seed);
  else if (Name == "live-heap")
    W = liveHeapWorkload(Seed);
  else if (Name == "compile")
    W = compileWorkload(Seed);
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Correctness checks and operation counts
//===----------------------------------------------------------------------===//

struct Checker {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void incorrect(const Program &P, const char *Leg, const std::string &What) {
    Correct = false;
    std::fprintf(stderr, "perfbench: INCORRECT %s [%s]: %s\n", P.Name.c_str(),
                 Leg, What.c_str());
  }
  void failed(const Program &P, const char *Leg, const std::string &What) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED %s [%s]: %s\n", P.Name.c_str(),
                 Leg, What.c_str());
  }

  /// Counts one compilation; false (and counted as failed) on errors.
  bool compiled(const Program &P, const compiler::Compilation &C,
                const char *Leg) {
    ++Attempted;
    if (C.ok())
      return true;
    failed(P, Leg, "compile error: " + C.Errors);
    return false;
  }

  /// Counts one execution and checks it against the oracle (every leg but
  /// the oracle itself): same observables, same allocations, the tcfree
  /// accounting law, and the byte bounds. False if the execution failed.
  bool executed(const Program &P, const compiler::ExecOutcome &O,
                const char *Leg) {
    ++Attempted;
    if (!O.ok()) {
      failed(P, Leg, O.Error);
      return false;
    }
    const rt::StatsSnapshot &S = O.Stats;
    if (O.Run.Checksum != P.Checksum || O.Run.SinkCount != P.SinkCount)
      incorrect(P, Leg,
                "checksum " + std::to_string(O.Run.Checksum) + " (" +
                    std::to_string(O.Run.SinkCount) + " sinks), oracle " +
                    std::to_string(P.Checksum) + " (" +
                    std::to_string(P.SinkCount) + " sinks)");
    if (S.AllocedBytes != P.AllocedBytes || S.AllocCount != P.AllocCount)
      incorrect(P, Leg,
                "allocated " + std::to_string(S.AllocedBytes) + " B in " +
                    std::to_string(S.AllocCount) + " objects, Go mode " +
                    std::to_string(P.AllocedBytes) + " B in " +
                    std::to_string(P.AllocCount));
    uint64_t Accounted = 0;
    for (uint64_t C : S.TcfreeGiveUpsByReason)
      Accounted += C;
    for (uint64_t C : S.FreedCountBySource)
      Accounted += C;
    if (S.TcfreeCalls != Accounted)
      incorrect(P, Leg,
                "tcfree accounting: " + std::to_string(S.TcfreeCalls) +
                    " calls, " + std::to_string(Accounted) +
                    " give-ups by reason + frees by source");
    if (S.tcfreeFreedBytes() > S.AllocedBytes)
      incorrect(P, Leg, "freed more bytes than were allocated");
    if (S.PeakLive > S.PeakCommitted)
      incorrect(P, Leg, "peak live exceeds peak committed");
    return true;
  }
};

compiler::CompileOptions compileOptions(CompileMode Mode) {
  compiler::CompileOptions CO;
  CO.Mode = Mode;
  return CO;
}

compiler::ExecOptions execOptions(const Program &P, compiler::ExecEngine E,
                                  rt::MockTcfree Mock) {
  compiler::ExecOptions EO;
  EO.Heap = P.Heap;
  EO.Heap.Mock = Mock;
  EO.Engine = E;
  return EO;
}

//===----------------------------------------------------------------------===//
// Set-up: the correctness legs
//===----------------------------------------------------------------------===//

/// The poisoning leg (GoFree under --mock=flip on the VM), run in a child
/// process: when the analysis freed a live object, the poisoned memory may
/// crash the program instead of changing its checksum, and that must be
/// reported as an incorrect output rather than end the benchmark.
void runPoisonLeg(const Program &P, const compiler::Compilation &Free,
                  Checker &Chk) {
  std::fflush(stdout);
  std::fflush(stderr);
  int Fds[2];
  if (pipe(Fds) != 0) {
    Chk.failed(P, "flip", "pipe failed");
    return;
  }
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    Chk.failed(P, "flip", "fork failed");
    return;
  }
  if (Pid == 0) {
    close(Fds[0]);
    alarm(60); // A poisoned pointer cycle must not hang the run.
    Checker Child;
    Child.executed(P,
                   compiler::execute(Free, P.Entry, P.Args,
                                     execOptions(P, compiler::ExecEngine::Vm,
                                                 rt::MockTcfree::Flip)),
                   "flip");
    char Out[2] = {(char)Child.Correct, (char)Child.Failed};
    ssize_t N = write(Fds[1], Out, sizeof Out);
    _exit(N == (ssize_t)sizeof Out ? 0 : 1);
  }
  close(Fds[1]);
  char In[2] = {0, 0};
  ssize_t N;
  do
    N = read(Fds[0], In, sizeof In);
  while (N < 0 && errno == EINTR);
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  ++Chk.Attempted;
  if (N == (ssize_t)sizeof In && WIFEXITED(Status) &&
      WEXITSTATUS(Status) == 0) {
    Chk.Correct = Chk.Correct && In[0];
    Chk.Failed += (uint64_t)In[1];
    return;
  }
  Chk.failed(P, "flip",
             WIFSIGNALED(Status)
                 ? "poisoned run died of signal " +
                       std::to_string(WTERMSIG(Status))
                 : "poisoned run exited without a result");
  Chk.Correct = false;
}

/// Runs the oracle (Go mode on the tree-walking interpreter, which has no
/// tcfree) and the poisoning leg (GoFree under --mock=flip on the VM) for
/// every program. Returns the oracle's summed execution time.
double runCorrectnessLegs(Workload &W, Checker &Chk, bool CountTokens) {
  double OracleSeconds = 0.0;
  for (Program &P : W.Progs) {
    if (CountTokens) {
      DiagSink Diags;
      P.Tokens = minigo::Lexer(P.Source, Diags).lexAll().size();
    }
    compiler::Compilation Go =
        compiler::compile(P.Source, compileOptions(CompileMode::Go));
    if (!Chk.compiled(P, Go, "oracle"))
      continue;
    compiler::ExecOutcome Oracle =
        compiler::execute(Go, P.Entry, P.Args,
                          execOptions(P, compiler::ExecEngine::Ast,
                                      rt::MockTcfree::Off));
    ++Chk.Attempted;
    if (!Oracle.ok()) {
      Chk.failed(P, "oracle", Oracle.Error);
      continue;
    }
    OracleSeconds += Oracle.WallSeconds;
    P.Usable = true;
    P.Checksum = Oracle.Run.Checksum;
    P.SinkCount = Oracle.Run.SinkCount;
    P.AllocedBytes = Oracle.Stats.AllocedBytes;
    P.AllocCount = Oracle.Stats.AllocCount;

    compiler::Compilation Free =
        compiler::compile(P.Source, compileOptions(CompileMode::GoFree));
    if (!Chk.compiled(P, Free, "flip"))
      continue;
    runPoisonLeg(P, Free, Chk);
  }
  return OracleSeconds;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// One program's figures in one pass.
struct ProgFigures {
  std::vector<double> CompileMs; ///< Per compilation, one per sample.
  double RunS = 0.0;
  double GcCycles = 0.0;
  double PeakHeapMb = 0.0;
};

/// The figures of one pass. Layer figures are filled by traced passes.
struct PassFigures {
  std::vector<ProgFigures> Progs;
  double CompileMsTotal = 0.0; ///< Every compilation of the pass.
  double RunS = 0.0;           ///< Every execution of the pass.
  std::map<std::string, double> Layer;
  /// Per-program lines for the stderr summary.
  std::vector<std::string> Notes;
};

/// compiler::compile's body, one public call per layer, each under a span.
compiler::Compilation compileTraced(const std::string &Source,
                                    CompileMode Mode, SpanLog &Log,
                                    uint64_t &LexNanos) {
  SpanScope Whole(&Log, "compiler.compile");
  compiler::Compilation C;
  C.Mode = Mode;
  DiagSink Diags;
  minigo::FrontendTimes FT;
  {
    SpanScope S(&Log, "minigo.frontend");
    C.Prog = minigo::parseAndCheck(Source, Diags, &FT);
  }
  LexNanos += FT.LexNanos;
  if (!C.Prog) {
    C.Errors = Diags.dump();
    return C;
  }
  escape::AnalysisOptions AO;
  AO.Targets = Mode == CompileMode::GoFree ? escape::FreeTargets::SlicesAndMaps
                                           : escape::FreeTargets::None;
  {
    SpanScope S(&Log, "escape.analyze");
    C.Analysis = escape::analyzeProgram(*C.Prog, AO);
  }
  if (Mode == CompileMode::GoFree) {
    SpanScope S(&Log, "instrument.insert");
    C.Instr = instrument::insertFrees(*C.Prog, C.Analysis);
  }
  return C;
}

/// Timed allocate / tcfree round trips on a private rt::Heap with GC off:
/// the small-object fast paths without the VM around them. Returns the
/// median ns per allocate and per tcfree over rounds.
void allocatorProbe(double &AllocNs, double &TcfreeNs) {
  constexpr size_t Objects = 4096, Rounds = 32, Bytes = 48;
  rt::HeapOptions HO;
  HO.Gc.Gogc = -1;
  HO.NumCaches = 1;
  rt::Heap H(HO);
  std::vector<uintptr_t> Addrs(Objects);
  std::vector<double> A, F;
  for (size_t R = 0; R < Rounds; ++R) {
    auto T0 = Clock::now();
    for (size_t I = 0; I < Objects; ++I)
      Addrs[I] = H.allocate(Bytes, nullptr, rt::AllocCat::Other, 0);
    auto T1 = Clock::now();
    for (size_t I = 0; I < Objects; ++I)
      H.tcfreeObject(Addrs[I], 0, rt::FreeSource::TcfreeObject);
    auto T2 = Clock::now();
    A.push_back((double)nanosBetween(T0, T1) / Objects);
    F.push_back((double)nanosBetween(T1, T2) / Objects);
  }
  AllocNs = median(A);
  TcfreeNs = median(F);
}

/// Adds one execution's runtime, VM and collector counters to \p L.
void addRunFigures(std::map<std::string, double> &L,
                   const compiler::ExecOutcome &O) {
  const rt::StatsSnapshot &S = O.Stats;
  uint64_t Frees = 0;
  for (uint64_t C : S.FreedCountBySource)
    Frees += C;
  double GcS = (double)S.GcNanos / 1e9;
  L["runtime.tcfree_calls"] += (double)S.TcfreeCalls;
  L["runtime.tcfree_frees"] += (double)Frees;
  L["runtime.tcfree_freed_mb"] += (double)S.tcfreeFreedBytes() / MiB;
  L["runtime.tcfree_giveups"] += (double)S.TcfreeGiveUps;
  L["runtime.map_grow_freed_mb"] +=
      (double)S.FreedBytesBySource[(int)rt::FreeSource::MapGrowOld] / MiB;
  L["runtime.peak_live_mb"] += (double)S.PeakLive / MiB;
  L["runtime.alloc_count"] += (double)S.AllocCount;
  L["runtime.alloc_mb"] += (double)S.AllocedBytes / MiB;
  L["vm.steps"] += (double)O.Run.Steps;
  L["vm.mutator_s"] += O.WallSeconds - GcS;
  L["gc.total_ms"] += (double)S.GcNanos / 1e6;
  L["gc.mark_ms"] += (double)S.GcMarkNanos / 1e6;
  L["gc.pause_ms"] += (double)S.GcPauseNanos / 1e6;
  L["gc.max_pause_ms"] =
      std::max(L["gc.max_pause_ms"], (double)S.GcMaxPauseNanos / 1e6);
  L["gc.swept_mb"] += (double)S.GcSweptBytes / MiB;
  L["gc.assists"] += (double)S.GcAssists;
  L["gc.conc_cycles"] += (double)S.GcConcCycles;
  L["gc.lazy_spans_swept"] += (double)S.GcSpansSweptLazy;
}

/// One pass: compile every program (W.compilesPerPass() times), then
/// execute each once. \p Log non-null makes it a traced pass.
PassFigures runPass(const Workload &W, CompileMode Mode, Checker &Chk,
                    SpanLog *Log) {
  PassFigures F;
  F.Progs.resize(W.Progs.size());
  std::vector<compiler::Compilation> Kept(W.Progs.size());
  uint64_t LexNs = 0;
  for (int Sample = 0; Sample < W.CompileSamples; ++Sample) {
    for (size_t I = 0; I < W.Progs.size(); ++I) {
      const Program &P = W.Progs[I];
      if (!P.Usable)
        continue;
      uint64_t Ns = 0;
      int Compiled = 0;
      for (int B = 0; B < W.CompileBatch; ++B) {
        compiler::Compilation C;
        auto T0 = Clock::now();
        C = Log ? compileTraced(P.Source, Mode, *Log, LexNs)
                : compiler::compile(P.Source, compileOptions(Mode));
        if (!Chk.compiled(P, C, "pass"))
          continue;
        {
          vm::Module M;
          {
            SpanScope S(Log, "vm.compile");
            M = vm::compileProgram(*C.Prog);
          }
          Ns += nanosBetween(T0, Clock::now());
        }
        ++Compiled;
        if (Sample + 1 < W.CompileSamples || B + 1 < W.CompileBatch)
          continue;
        if (Log) {
          std::map<std::string, double> &L = F.Layer;
          L["escape.root_walks"] += (double)C.Analysis.Stats.RootWalks;
          L["escape.relaxations"] += (double)C.Analysis.Stats.Relaxations;
          L["escape.to_free_vars"] += (double)C.Analysis.ToFreeVars.size();
          L["instrument.frees_inserted"] += (double)C.Instr.total();
          L["minigo.tokens"] += (double)P.Tokens;
        }
        Kept[I] = std::move(C);
      }
      if (Compiled)
        F.Progs[I].CompileMs.push_back((double)Ns / 1e6 / Compiled);
      F.CompileMsTotal += (double)Ns / 1e6;
    }
  }
  if (Log)
    F.Layer["minigo.lex_ms"] = (double)LexNs / 1e6 / W.compilesPerPass();

  for (size_t I = 0; I < W.Progs.size(); ++I) {
    const Program &P = W.Progs[I];
    if (!Kept[I].ok())
      continue;
    compiler::ExecOutcome O;
    {
      SpanScope S(Log, "vm.run");
      O = compiler::execute(
          Kept[I], P.Entry, P.Args,
          execOptions(P, compiler::ExecEngine::Vm, rt::MockTcfree::Off));
    }
    if (!Chk.executed(P, O, "pass"))
      continue;
    ProgFigures &PF = F.Progs[I];
    PF.RunS = O.WallSeconds;
    PF.GcCycles = (double)O.Stats.GcCycles;
    PF.PeakHeapMb = (double)O.Stats.PeakCommitted / MiB;
    F.RunS += O.WallSeconds;
    char Note[256];
    std::snprintf(Note, sizeof Note,
                  "%s: run_s=%.4f gc_cycles=%llu gc_ms=%.3f peak_heap_mb=%.2f "
                  "alloc_mb=%.2f freed_mb=%.2f",
                  P.Name.c_str(), O.WallSeconds,
                  (unsigned long long)O.Stats.GcCycles,
                  (double)O.Stats.GcNanos / 1e6,
                  (double)O.Stats.PeakCommitted / MiB,
                  (double)O.Stats.AllocedBytes / MiB,
                  (double)O.Stats.tcfreeFreedBytes() / MiB);
    F.Notes.push_back(Note);
    if (Log)
      addRunFigures(F.Layer, O);
  }

  if (Log) {
    SpanScope S(Log, "runtime.probe");
    allocatorProbe(F.Layer["runtime.small_alloc_ns"],
                   F.Layer["runtime.tcfree_ns"]);
  }
  return F;
}

/// Span totals (per compilation of the whole set) and derived ratios of
/// traced pass \p P.
void finishLayerFigures(PassFigures &F, const SpanLog &Log, int P,
                        int CompilesPerPass) {
  std::map<std::string, double> &L = F.Layer;
  for (const char *Name : {"compiler.compile", "minigo.frontend",
                           "escape.analyze", "instrument.insert",
                           "vm.compile"})
    L[std::string(Name) + "_ms"] = Log.totalMs(Name, P) / CompilesPerPass;
  L["vm.ns_per_step"] =
      L["vm.steps"] > 0 ? L["vm.mutator_s"] * 1e9 / L["vm.steps"] : 0.0;
  L["runtime.tcfree_freed_per_call"] =
      L["runtime.tcfree_calls"] > 0
          ? L["runtime.tcfree_frees"] / L["runtime.tcfree_calls"]
          : 0.0;
  L.erase("runtime.tcfree_frees");
  L["gc.share_of_run"] = F.RunS > 0 ? L["gc.total_ms"] / 1e3 / F.RunS : 0.0;
  L["compiler.share_of_pass"] =
      F.CompileMsTotal / (F.CompileMsTotal + F.RunS * 1e3);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  const char *Name;
  const char *Unit;
};

const Metric EndToEnd[] = {{"setup_s", "s"},
                           {"compile_ms", "ms"},
                           {"run_s", "s"},
                           {"gc_cycles", "count"},
                           {"peak_heap_mb", "MB"}};

const Metric PerLayer[] = {
    {"compiler.compile_ms", "ms"},   {"minigo.lex_ms", "ms"},
    {"minigo.frontend_ms", "ms"},    {"minigo.tokens", "count"},
    {"escape.analyze_ms", "ms"},     {"escape.root_walks", "count"},
    {"escape.relaxations", "count"}, {"instrument.insert_ms", "ms"},
    {"vm.compile_ms", "ms"},         {"escape.to_free_vars", "count"},
    {"instrument.frees_inserted", "count"},
    {"runtime.tcfree_calls", "count"},
    {"runtime.tcfree_freed_mb", "MB"},
    {"runtime.tcfree_giveups", "count"},
    {"runtime.tcfree_freed_per_call", "ratio"},
    {"runtime.map_grow_freed_mb", "MB"},
    {"runtime.peak_live_mb", "MB"},  {"vm.steps", "count"},
    {"vm.mutator_s", "s"},           {"vm.ns_per_step", "ns"},
    {"runtime.alloc_count", "count"}, {"runtime.alloc_mb", "MB"},
    {"runtime.small_alloc_ns", "ns"}, {"runtime.tcfree_ns", "ns"},
    {"gc.lazy_spans_swept", "count"}, {"gc.total_ms", "ms"},
    {"gc.mark_ms", "ms"},            {"gc.pause_ms", "ms"},
    {"gc.max_pause_ms", "ms"},       {"gc.swept_mb", "MB"},
    {"gc.assists", "count"},         {"gc.conc_cycles", "count"},
    {"gc.share_of_run", "ratio"},    {"compiler.share_of_pass", "ratio"},
    {"interp.oracle_run_s", "s"}};

void printHost(const Options &O) {
  const char *Sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  Sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  Sanitizer = "thread";
#endif
  std::printf("host cores=%u build=%s sanitizer=%s rev=%s workload=%s "
              "seed=%llu trace=%d mode=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              Sanitizer, O.Rev.c_str(), O.Workload.c_str(),
              (unsigned long long)O.Seed, O.Trace ? 1 : 0,
              O.GoMode ? "go" : "gofree");
  std::fflush(stdout);
}

void printResult(const Checker &Chk, const std::map<std::string, double> &M,
                 const Metric *Begin, const Metric *End) {
  std::string Out = "{\"correct\": ";
  Out += Chk.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Chk.Attempted);
  Out += ", \"failed\": " + std::to_string(Chk.Failed);
  Out += ", \"metrics\": {";
  for (const Metric *It = Begin; It != End; ++It) {
    char Buf[160];
    auto V = M.find(It->Name);
    std::snprintf(Buf, sizeof Buf,
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  It == Begin ? "" : ", ", It->Name,
                  V == M.end() ? 0.0 : V->second, It->Unit);
    Out += Buf;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  Workload W;
  if (!makeWorkload(O.Workload, O.Seed, W)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (subjects, "
                         "live-heap, compile)\n",
                 O.Workload.c_str());
    return 2;
  }
  printHost(O);

  Checker Chk;
  SpanLog Log;
  SpanLog *Traced = O.Trace ? &Log : nullptr;
  CompileMode Mode = O.GoMode ? CompileMode::Go : CompileMode::GoFree;

  double OracleS;
  {
    SpanScope S(Traced, "setup.correctness_legs");
    OracleS = runCorrectnessLegs(W, Chk, O.Trace);
  }
  {
    SpanScope S(Traced, "setup.warmup");
    runPass(W, Mode, Chk, Traced);
  }
  double SetupS = secondsSince(ProcessStart);

  std::vector<PassFigures> Passes;
  auto Start = Clock::now();
  do {
    Log.setPass((int)Passes.size());
    Passes.push_back(runPass(W, Mode, Chk, Traced));
    if (Traced)
      finishLayerFigures(Passes.back(), Log, (int)Passes.size() - 1,
                         W.compilesPerPass());
  } while (secondsSince(Start) < O.Seconds);

  // Each end-to-end figure sums, over the programs, a quantile of that
  // program's samples, so a burst of host noise moves one sample of one
  // program rather than a whole pass. Times take the lower quartile, not
  // the median: that noise only ever adds time and, on a host whose cores
  // are shared, comes in bursts that can cover half the samples (README.md
  // has the comparison). Counts and sizes take the median.
  auto SumOfQuantiles = [&](double Q, auto Samples) {
    double Sum = 0.0;
    for (size_t I = 0; I < W.Progs.size(); ++I) {
      std::vector<double> V;
      for (const PassFigures &F : Passes)
        Samples(F.Progs[I], V);
      Sum += quantile(V, Q);
    }
    return Sum;
  };
  std::map<std::string, double> E2E;
  E2E["setup_s"] = SetupS;
  E2E["compile_ms"] = SumOfQuantiles(0.25, [](const ProgFigures &P, auto &V) {
    V.insert(V.end(), P.CompileMs.begin(), P.CompileMs.end());
  });
  E2E["run_s"] = SumOfQuantiles(
      0.25, [](const ProgFigures &P, auto &V) { V.push_back(P.RunS); });
  E2E["gc_cycles"] = SumOfQuantiles(
      0.5, [](const ProgFigures &P, auto &V) { V.push_back(P.GcCycles); });
  E2E["peak_heap_mb"] = SumOfQuantiles(
      0.5, [](const ProgFigures &P, auto &V) { V.push_back(P.PeakHeapMb); });

  std::map<std::string, double> Layers;
  if (Traced) {
    for (const Metric &M : PerLayer) {
      std::vector<double> V;
      for (const PassFigures &F : Passes) {
        auto It = F.Layer.find(M.Name);
        V.push_back(It == F.Layer.end() ? 0.0 : It->second);
      }
      Layers[M.Name] = median(V);
    }
    Layers["interp.oracle_run_s"] = OracleS;
    if (!O.TraceOut.empty() && !Log.write(O.TraceOut))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   O.TraceOut.c_str());
  }

  // Human-readable summary on stderr: every end-to-end figure, also for a
  // traced run (the traced-versus-untraced overhead comes from these).
  std::fprintf(stderr, "perfbench: %zu passes:", Passes.size());
  for (const auto &[Name, V] : E2E)
    std::fprintf(stderr, " %s=%.6g", Name.c_str(), V);
  std::fprintf(stderr, " oracle_run_s=%.4g\n", OracleS);
  for (const std::string &Note : Passes.back().Notes)
    std::fprintf(stderr, "perfbench:   last pass %s\n", Note.c_str());

  if (Traced)
    printResult(Chk, Layers, std::begin(PerLayer), std::end(PerLayer));
  else
    printResult(Chk, E2E, std::begin(EndToEnd), std::end(EndToEnd));
  return 0;
}
