// gpustld service layer: JSON codec, admission control, CancelToken
// concurrency, and in-process CampaignService end-to-end behavior
// (event ordering, report byte-identity with gpustlc, shared caches
// across tenants, graceful drain).
//
// Labeled `tsan` in ctest: the admission queue, the shared result store
// and the dual-slot CancelToken are exactly the state the daemon's
// threads contend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/status.h"
#include "compact/report.h"
#include "compact/run_guard.h"
#include "compact/stl_campaign.h"
#include "service/admission.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"

namespace gpustl::service {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gpustl_service" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// --- Json --------------------------------------------------------------------

TEST(JsonTest, DumpIsDeterministicAndOrdered) {
  Json j = Json::Object();
  j.Set("b", 1);
  j.Set("a", "x\"y\n");
  j.Set("c", true);
  j.Set("d", Json());
  Json arr = Json::Array();
  arr.Append(1.5);
  arr.Append("s");
  j.Set("e", std::move(arr));
  EXPECT_EQ(j.Dump(),
            "{\"b\":1,\"a\":\"x\\\"y\\n\",\"c\":true,\"d\":null,"
            "\"e\":[1.5,\"s\"]}");
}

TEST(JsonTest, ParseRoundTrips) {
  const std::string text =
      "{\"op\":\"submit\",\"deadline\":2.5,\"threads\":4,"
      "\"entries\":[{\"module\":\"DU\",\"reverse\":true}],"
      "\"note\":\"a\\u0041\\t\\u00e9\"}";
  std::string error;
  const auto j = Json::Parse(text, &error);
  ASSERT_TRUE(j.has_value()) << error;
  EXPECT_EQ(j->GetString("op"), "submit");
  EXPECT_EQ(j->GetDouble("deadline"), 2.5);
  EXPECT_EQ(j->GetInt("threads"), 4);
  ASSERT_TRUE(j->Find("entries")->is_array());
  EXPECT_TRUE(j->Find("entries")->items()[0].GetBool("reverse"));
  EXPECT_EQ(j->GetString("note"), "aA\t\xc3\xa9");
  // Dump -> Parse -> Dump is a fixed point.
  const auto again = Json::Parse(j->Dump(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->Dump(), j->Dump());
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "{\"a\":1} trailing", "01x", "\"bad \\q escape\"",
        "\"lone \\ud800 surrogate\""}) {
    EXPECT_FALSE(Json::Parse(bad).has_value()) << bad;
  }
  // Depth bomb: must fail cleanly, not overflow the stack.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::Parse(deep).has_value());
}

TEST(JsonTest, NumbersPrintIntegersWithoutDecimalPoint) {
  Json j = Json::Object();
  j.Set("i", 42);
  j.Set("big", std::uint64_t{1234567890123});
  j.Set("f", 0.25);
  EXPECT_EQ(j.Dump(), "{\"i\":42,\"big\":1234567890123,\"f\":0.25}");
}

// --- Protocol ----------------------------------------------------------------

TEST(ProtocolTest, ParseSubmitRequestValidatesSchema) {
  SubmitRequest req;
  std::string error;

  auto parse = [&](const char* text) {
    const auto j = Json::Parse(text);
    EXPECT_TRUE(j.has_value()) << text;
    return ParseSubmitRequest(*j, &req, &error);
  };

  EXPECT_TRUE(parse("{\"op\":\"submit\",\"manifest\":\"m.txt\","
                    "\"tenant\":\"t1\",\"priority\":\"high\","
                    "\"deadline\":9,\"threads\":1}"));
  EXPECT_EQ(req.tenant, "t1");
  EXPECT_EQ(req.priority, "high");
  EXPECT_EQ(req.deadline_seconds, 9.0);
  EXPECT_EQ(req.threads, 1);

  EXPECT_TRUE(parse("{\"op\":\"submit\",\"entries\":[{\"asm\":\".entry x\","
                    "\"module\":\"DU\",\"mode\":\"carry\"}]}"));
  ASSERT_EQ(req.entries.size(), 1u);
  EXPECT_FALSE(req.entries[0].compact);

  EXPECT_FALSE(parse("{\"op\":\"submit\"}"));  // no manifest, no entries
  EXPECT_FALSE(parse("{\"op\":\"submit\",\"manifest\":\"m\","
                     "\"entries\":[{\"asm\":\"x\",\"module\":\"DU\"}]}"));
  EXPECT_FALSE(parse("{\"op\":\"submit\",\"manifest\":\"m\","
                     "\"priority\":\"urgent\"}"));
  EXPECT_FALSE(parse("{\"op\":\"submit\",\"entries\":[{\"module\":\"DU\"}]}"));
  EXPECT_FALSE(parse("{\"op\":\"submit\",\"entries\":[{\"asm\":\"x\","
                     "\"path\":\"y\",\"module\":\"DU\"}]}"));
}

TEST(ProtocolTest, SubmitThreadsAreBoundedByTheHost) {
  // Each fault-sim thread is an OS thread: a peer must not be able to make
  // one job start thousands of them. Out-of-range values fail the parse,
  // so no job is ever built from them.
  const int max_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const auto parse = [](const std::string& threads, SubmitRequest* req,
                        std::string* error) {
    const auto j = Json::Parse("{\"op\":\"submit\",\"manifest\":\"m\","
                               "\"threads\":" + threads + "}");
    EXPECT_TRUE(j.has_value()) << threads;
    return ParseSubmitRequest(*j, req, error);
  };

  for (const int ok : {-1, 0, 1, max_threads}) {
    SubmitRequest req;
    std::string error;
    EXPECT_TRUE(parse(std::to_string(ok), &req, &error)) << ok << error;
    EXPECT_EQ(req.threads, ok);
  }
  for (const std::string& bad :
       {std::string("100000"), std::string("1099511627776"),  // 2^40
        std::to_string(max_threads + 1), std::string("-2"),
        std::string("1e300")}) {
    SubmitRequest req;
    req.threads = 7;
    std::string error;
    EXPECT_FALSE(parse(bad, &req, &error)) << bad;
    EXPECT_NE(error.find("threads must be"), std::string::npos) << error;
    EXPECT_EQ(req.threads, 7) << "a rejected request must not be filled";
  }
}

TEST(ProtocolTest, PathFieldNamesTheFirstDaemonSideFile) {
  SubmitRequest req;
  SubmitEntry entry;
  entry.asm_text = "x";
  req.entries = {entry, entry};
  EXPECT_EQ(PathField(req), "");
  req.checkpoint_dir = "/c";
  EXPECT_EQ(PathField(req), "checkpoint_dir");
  req.entries[1].path = "p.gptp";
  EXPECT_EQ(PathField(req), "entries[1].path");
  req.manifest = "m.txt";
  EXPECT_EQ(PathField(req), "manifest");
}

// --- AdmissionQueue ----------------------------------------------------------

Ticket MakeTicket(std::uint64_t id, const char* tenant, Priority p) {
  Ticket t;
  t.id = id;
  t.tenant = tenant;
  t.priority = p;
  return t;
}

TEST(AdmissionQueueTest, DispatchesByPriorityThenFifo) {
  AdmissionQueue q({.max_queue_depth = 16, .per_tenant_quota = 16});
  ASSERT_TRUE(q.Enqueue(MakeTicket(1, "t", Priority::kLow)).admitted);
  ASSERT_TRUE(q.Enqueue(MakeTicket(2, "t", Priority::kNormal)).admitted);
  ASSERT_TRUE(q.Enqueue(MakeTicket(3, "t", Priority::kHigh)).admitted);
  ASSERT_TRUE(q.Enqueue(MakeTicket(4, "t", Priority::kHigh)).admitted);
  ASSERT_TRUE(q.Enqueue(MakeTicket(5, "t", Priority::kNormal)).admitted);

  std::vector<std::uint64_t> order;
  for (int i = 0; i < 5; ++i) order.push_back(q.Pop()->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 4, 2, 5, 1}));
}

TEST(AdmissionQueueTest, BoundsDepthAndTenantQuota) {
  AdmissionQueue q({.max_queue_depth = 3, .per_tenant_quota = 2});

  EXPECT_TRUE(q.Enqueue(MakeTicket(1, "a", Priority::kNormal)).admitted);
  EXPECT_TRUE(q.Enqueue(MakeTicket(2, "a", Priority::kNormal)).admitted);
  const auto quota = q.Enqueue(MakeTicket(3, "a", Priority::kNormal));
  EXPECT_FALSE(quota.admitted);
  EXPECT_EQ(quota.reason, "tenant-quota");

  EXPECT_TRUE(q.Enqueue(MakeTicket(4, "b", Priority::kNormal)).admitted);
  const auto full = q.Enqueue(MakeTicket(5, "c", Priority::kNormal));
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.reason, "queue-full");

  // The quota covers queued + RUNNING: popping does not release it,
  // MarkDone does.
  ASSERT_TRUE(q.Pop().has_value());
  EXPECT_FALSE(q.Enqueue(MakeTicket(6, "a", Priority::kNormal)).admitted);
  q.MarkDone("a");
  EXPECT_TRUE(q.Enqueue(MakeTicket(7, "a", Priority::kNormal)).admitted);
}

TEST(AdmissionQueueTest, CloseAndFlushHandsBackQueuedTickets) {
  AdmissionQueue q({.max_queue_depth = 8, .per_tenant_quota = 8});
  ASSERT_TRUE(q.Enqueue(MakeTicket(1, "a", Priority::kNormal)).admitted);
  ASSERT_TRUE(q.Enqueue(MakeTicket(2, "b", Priority::kHigh)).admitted);

  const auto flushed = q.CloseAndFlush();
  EXPECT_EQ(flushed.size(), 2u);
  EXPECT_FALSE(q.Pop().has_value());

  const auto after = q.Enqueue(MakeTicket(3, "a", Priority::kNormal));
  EXPECT_FALSE(after.admitted);
  EXPECT_EQ(after.reason, "draining");
}

TEST(AdmissionQueueTest, ConcurrentProducersConsumersDrainExactly) {
  AdmissionQueue q({.max_queue_depth = 1024, .per_tenant_quota = 1024});
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;

  std::atomic<int> popped{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto t = q.Pop()) {
        popped.fetch_add(1);
        q.MarkDone(t->tenant);
      }
    });
  }
  std::vector<std::thread> producers;
  std::atomic<int> accepted{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto d = q.Enqueue(MakeTicket(
            static_cast<std::uint64_t>(p * kPerProducer + i), "t",
            static_cast<Priority>(i % 3)));
        if (d.admitted) accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  // Close only after the queue is observably drained — consumers keep
  // popping until then; Close wakes them to exit.
  while (q.QueuedDepth() > 0) std::this_thread::yield();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), accepted.load());
  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
}

// --- CancelToken under concurrency ------------------------------------------

TEST(CancelTokenTest, RunDeadlineSurvivesStageRearming) {
  CancelToken token;
  token.ArmRunDeadline(1e-9);  // effectively already expired
  // A stage guard arming/disarming its own slot must not clear the run
  // deadline.
  token.ArmDeadline(1000.0);
  EXPECT_TRUE(token.Expired());
  token.DisarmDeadline();
  EXPECT_TRUE(token.Expired());
  token.ArmDeadline(0.0);  // non-positive = disarm, stage slot only
  EXPECT_TRUE(token.Expired());
  token.DisarmRunDeadline();
  EXPECT_FALSE(token.Expired());
}

TEST(CancelTokenTest, StageDeadlineIndependentOfRunSlot) {
  CancelToken token;
  token.ArmRunDeadline(1000.0);
  EXPECT_FALSE(token.Expired());
  token.ArmDeadline(1e-9);
  EXPECT_TRUE(token.Expired());
  token.DisarmDeadline();
  EXPECT_FALSE(token.Expired());
}

TEST(CancelTokenTest, ConcurrentArmersPollersAndCancel) {
  CancelToken token;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Armers model stage guards re-arming around every stage...
  for (int a = 0; a < 2; ++a) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        token.ArmDeadline(1000.0);
        token.DisarmDeadline();
      }
    });
  }
  // ...one service thread owns the run slot...
  threads.emplace_back([&] {
    while (!stop.load()) {
      token.ArmRunDeadline(1000.0);
      token.DisarmRunDeadline();
    }
  });
  // ...and fault-sim workers poll.
  std::atomic<bool> saw_expired{false};
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        if (token.Expired()) saw_expired.store(true);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.RequestCancel();  // any thread may cancel at any time
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.Expired());
  EXPECT_TRUE(saw_expired.load());
}

// --- CampaignService end to end ---------------------------------------------

constexpr const char* kTinyAsm = R"(.entry tiny
.blocks 1
.threads 32
    S2R R1, SR_TID
    MOV32I R0, 4
    IMUL R3, R1, R0
    IADD32I R2, R3, 0x10000
    MOV32I R4, 0x1234
    IADD R5, R4, R1
    STG [R2+0x0], R5
    EXIT
)";

SubmitRequest TinyRequest() {
  SubmitRequest req;
  SubmitEntry entry;
  entry.asm_text = kTinyAsm;
  entry.module = "DU";
  req.entries.push_back(entry);
  entry.module = "SP";
  entry.compact = false;
  req.entries.push_back(entry);
  return req;
}

/// Collects one job's events; thread-safe against the sink contract
/// (per-job calls are serialized, but assertions run on the test thread
/// after the terminal event).
struct EventLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Json> events;
  bool terminal = false;

  EventSink Sink() {
    return [this](const Json& event) {
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(event);
      const std::string kind = event.GetString("event");
      if (kind == "complete" || kind == "failed" || kind == "rejected") {
        terminal = true;
      }
      cv.notify_all();
    };
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return terminal; });
  }

  /// Waits until an event of `kind` has been emitted (e.g. `admitted`,
  /// proof the worker popped the ticket off the queue).
  void WaitForKind(const std::string& kind) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      for (const auto& e : events) {
        if (e.GetString("event") == kind) return true;
      }
      return terminal;
    });
  }

  std::vector<std::string> Kinds() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> kinds;
    for (const auto& e : events) kinds.push_back(e.GetString("event"));
    return kinds;
  }

  Json Terminal() {
    std::lock_guard<std::mutex> lock(mu);
    return events.back();
  }
};

/// The report `gpustlc campaign --report` would write for the same inputs.
std::string DirectReport(const std::vector<compact::PlanEntry>& plan,
                         double stage_deadline = 0.0) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const netlist::Netlist fp32 = circuits::BuildFp32();
  compact::CompactorOptions base;
  base.stage_deadline_seconds = stage_deadline;
  compact::StlCampaign campaign(du, sp, sfu, base, &fp32);
  for (const auto& pe : plan) campaign.Process(pe.entry);
  return compact::RenderCampaignReport(campaign.records(),
                                       campaign.Summary());
}

TEST(CampaignServiceTest, EventOrderingAndReportMatchesGpustlc) {
  const auto plan = BuildPlan(TinyRequest());

  ServiceOptions options;
  options.workers = 2;
  CampaignService service(options);

  EventLog log;
  JobSpec spec;
  spec.plan = plan;
  const auto result = service.Submit(std::move(spec), log.Sink());
  EXPECT_TRUE(result.admitted);
  log.Wait();

  const auto kinds = log.Kinds();
  ASSERT_GE(kinds.size(), 4u);
  EXPECT_EQ(kinds.front(), "queued");
  EXPECT_EQ(kinds[1], "admitted");
  EXPECT_EQ(kinds.back(), "complete");
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "stage"), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "entry-done"), kinds.end());

  const Json terminal = log.Terminal();
  EXPECT_EQ(terminal.GetString("status"), "complete");
  EXPECT_EQ(terminal.GetInt("entries"), 2);
  EXPECT_EQ(terminal.GetString("report"), DirectReport(plan))
      << "daemon-side campaign must render byte-identical reports";
  service.Drain(false);
}

TEST(CampaignServiceTest, DegradedJobRendersIdenticalDegradedReport) {
  const auto plan = BuildPlan(TinyRequest());

  ServiceOptions options;
  options.workers = 1;
  CampaignService service(options);

  EventLog log;
  JobSpec spec;
  spec.plan = plan;
  // A stage budget no stage can meet: every entry degrades at its first
  // stage, deterministically (class `deadline`), and the job completes
  // `degraded` — the PR 5 failure-domain semantics, not a job failure.
  spec.stage_deadline_seconds = 1e-9;
  const auto result = service.Submit(std::move(spec), log.Sink());
  EXPECT_TRUE(result.admitted);
  log.Wait();

  const Json terminal = log.Terminal();
  ASSERT_EQ(terminal.GetString("event"), "complete");
  EXPECT_EQ(terminal.GetString("status"), "degraded");
  EXPECT_EQ(terminal.GetInt("degraded_entries"), 2);
  EXPECT_EQ(terminal.GetString("report"), DirectReport(plan, 1e-9));

  const auto counters = service.counters();
  EXPECT_EQ(counters.degraded, 1u);
  EXPECT_EQ(counters.completed, 0u);
  service.Drain(false);
}

TEST(CampaignServiceTest, TenantsShareTheHotStore) {
  const std::string cache_dir = ScratchDir("shared_store");
  ServiceOptions options;
  options.workers = 2;
  options.cache_dir = cache_dir;
  CampaignService service(options);

  // Tenant t0 primes the store (all misses)...
  {
    EventLog log;
    JobSpec spec;
    spec.tenant = "t0";
    spec.plan = BuildPlan(TinyRequest());
    ASSERT_TRUE(service.Submit(std::move(spec), log.Sink()).admitted);
    log.Wait();
    ASSERT_EQ(log.Terminal().GetString("status"), "complete");
  }
  const store::StoreStats primed = service.cache_stats();
  EXPECT_GT(primed.misses, 0u);
  EXPECT_GT(primed.stores, 0u);

  // ...then two tenants run the same content CONCURRENTLY: every fault
  // sim of both jobs must come from the shared store.
  EventLog log1;
  EventLog log2;
  JobSpec spec1;
  spec1.tenant = "t1";
  spec1.plan = BuildPlan(TinyRequest());
  JobSpec spec2;
  spec2.tenant = "t2";
  spec2.priority = Priority::kHigh;
  spec2.plan = BuildPlan(TinyRequest());
  ASSERT_TRUE(service.Submit(std::move(spec1), log1.Sink()).admitted);
  ASSERT_TRUE(service.Submit(std::move(spec2), log2.Sink()).admitted);
  log1.Wait();
  log2.Wait();
  EXPECT_EQ(log1.Terminal().GetString("status"), "complete");
  EXPECT_EQ(log2.Terminal().GetString("status"), "complete");

  const store::StoreStats after = service.cache_stats();
  EXPECT_EQ(after.misses, primed.misses)
      << "warm re-runs must not recompute anything";
  // Each job runs 3 cached simulations: the full-list runs of the compact
  // entry's original and compacted patterns, and the carried entry's
  // measurement.
  EXPECT_EQ(after.hits - primed.hits, 6u);
  service.Drain(false);
}

TEST(CampaignServiceTest, RejectsBeyondDepthAndQuotaBeforeAnyWork) {
  ServiceOptions options;
  options.workers = 1;
  // Zero-size plans never reach a worker: admission decisions are
  // deterministic because nothing is popped until we say so — so instead,
  // use depth/quota at the queue the service actually consults.
  options.admission.max_queue_depth = 2;
  options.admission.per_tenant_quota = 1;
  CampaignService service(options);

  // Park the single worker on a real job so queued tickets stay queued;
  // `admitted` proves its ticket left the queue, so depth starts at 0.
  EventLog park;
  JobSpec parked;
  parked.tenant = "parker";
  parked.plan = BuildPlan(TinyRequest());
  ASSERT_TRUE(service.Submit(std::move(parked), park.Sink()).admitted);
  park.WaitForKind("admitted");

  EventLog a1;
  JobSpec j1;
  j1.tenant = "a";
  j1.plan = BuildPlan(TinyRequest());
  ASSERT_TRUE(service.Submit(std::move(j1), a1.Sink()).admitted);

  EventLog a2;
  JobSpec j2;
  j2.tenant = "a";
  j2.plan = BuildPlan(TinyRequest());
  const auto quota = service.Submit(std::move(j2), a2.Sink());
  EXPECT_FALSE(quota.admitted);
  EXPECT_EQ(quota.reason, "tenant-quota");
  EXPECT_EQ(a2.Terminal().GetString("reason"), "tenant-quota");

  EventLog b1;
  JobSpec j3;
  j3.tenant = "b";
  j3.plan = BuildPlan(TinyRequest());
  ASSERT_TRUE(service.Submit(std::move(j3), b1.Sink()).admitted);

  EventLog c1;
  JobSpec j4;
  j4.tenant = "c";
  j4.plan = BuildPlan(TinyRequest());
  const auto full = service.Submit(std::move(j4), c1.Sink());
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.reason, "queue-full");

  park.Wait();
  a1.Wait();
  b1.Wait();
  service.Drain(false);
}

TEST(CampaignServiceTest, DrainEmitsTerminalEventForEveryJob) {
  ServiceOptions options;
  options.workers = 1;
  options.admission.max_queue_depth = 16;
  CampaignService service(options);

  constexpr int kJobs = 5;
  std::vector<std::unique_ptr<EventLog>> logs;
  for (int i = 0; i < kJobs; ++i) {
    logs.push_back(std::make_unique<EventLog>());
    JobSpec spec;
    spec.tenant = "t" + std::to_string(i % 2);
    spec.plan = BuildPlan(TinyRequest());
    ASSERT_TRUE(service.Submit(std::move(spec), logs.back()->Sink()).admitted);
  }
  // Drain immediately: some jobs may be running, the rest are flushed.
  service.Drain(true);

  for (auto& log : logs) {
    log->Wait();  // must not hang: every job got its terminal event
    const std::string kind = log->Terminal().GetString("event");
    EXPECT_TRUE(kind == "complete" || kind == "failed") << kind;
  }
  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(counters.completed + counters.degraded + counters.failed,
            static_cast<std::uint64_t>(kJobs));

  // Submitting after the drain is a deterministic `draining` rejection.
  EventLog late;
  JobSpec spec;
  spec.plan = BuildPlan(TinyRequest());
  const auto rejected = service.Submit(std::move(spec), late.Sink());
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "draining");
}

TEST(CampaignServiceTest, ManifestPlanMatchesInlinePlan) {
  // A manifest with relative PTP paths must resolve against the manifest's
  // own directory and fingerprint identically to the inline submission.
  const std::string dir = ScratchDir("manifest_plan");
  {
    std::ofstream asm_file(fs::path(dir) / "tiny.asm");
    asm_file << kTinyAsm;
    std::ofstream manifest(fs::path(dir) / "stl.txt");
    manifest << "# comment\n"
             << "tiny.asm DU compact\n"
             << "tiny.asm SP carry\n";
  }
  SubmitRequest by_manifest;
  by_manifest.manifest = (fs::path(dir) / "stl.txt").string();
  const auto manifest_plan = BuildPlan(by_manifest);
  const auto inline_plan = BuildPlan(TinyRequest());
  ASSERT_EQ(manifest_plan.size(), inline_plan.size());
  for (std::size_t i = 0; i < manifest_plan.size(); ++i) {
    EXPECT_EQ(manifest_plan[i].fp, inline_plan[i].fp) << "entry " << i;
    EXPECT_EQ(manifest_plan[i].target_token, inline_plan[i].target_token);
  }

  SubmitRequest missing;
  missing.manifest = (fs::path(dir) / "absent.txt").string();
  EXPECT_THROW(BuildPlan(missing), Error);
}

TEST(CampaignServiceTest, ClientResolvedManifestKeepsEveryFingerprint) {
  // gpustl-client reads the manifest itself and sends each PTP inline as
  // its disassembly: the daemon must plan exactly what the manifest
  // names, carried and reversed entries included.
  const std::string dir = ScratchDir("client_manifest");
  {
    std::ofstream asm_file(fs::path(dir) / "tiny.asm");
    asm_file << "# a comment the disassembly drops\n" << kTinyAsm;
    std::ofstream manifest(fs::path(dir) / "stl.txt");
    manifest << "tiny.asm DU compact\n"
             << "tiny.asm SP carry\n"
             << "tiny.asm SFU compact reverse\n";
  }
  const auto manifest_plan =
      LoadManifestPlan((fs::path(dir) / "stl.txt").string());
  Json request = Json::Object();
  Json entries = Json::Array();
  for (const auto& pe : manifest_plan) entries.Append(EncodeEntry(pe));
  request.Set("entries", std::move(entries));
  SubmitRequest wire;
  std::string error;
  ASSERT_TRUE(ParseSubmitRequest(request, &wire, &error)) << error;
  EXPECT_EQ(PathField(wire), "");
  const auto inline_plan = BuildPlan(wire);
  ASSERT_EQ(inline_plan.size(), 3u);
  ASSERT_EQ(manifest_plan.size(), 3u);
  for (std::size_t i = 0; i < inline_plan.size(); ++i) {
    EXPECT_EQ(inline_plan[i].fp, manifest_plan[i].fp) << "entry " << i;
    EXPECT_EQ(inline_plan[i].entry.compactable,
              manifest_plan[i].entry.compactable);
    EXPECT_EQ(inline_plan[i].entry.reverse_patterns,
              manifest_plan[i].entry.reverse_patterns);
  }
}

TEST(CampaignServiceTest, RetiredBackendKeyIsIgnored) {
  // The engine picks its own width, so a submit that still names a backend
  // ("avx2" no longer exists) must run exactly like one that does not.
  const std::string dir = ScratchDir("backend_key");
  {
    std::ofstream asm_file(fs::path(dir) / "tiny.asm");
    asm_file << kTinyAsm;
    std::ofstream manifest(fs::path(dir) / "stl.txt");
    manifest << "tiny.asm DU compact\n"
             << "tiny.asm SP carry\n";
  }
  const std::string manifest = (fs::path(dir) / "stl.txt").string();

  ServiceOptions options;
  options.workers = 1;
  CampaignService service(options);
  std::string reports[2];
  const std::string extra[] = {"", ",\"backend\":\"avx2\""};
  for (int i = 0; i < 2; ++i) {
    const auto j = Json::Parse("{\"op\":\"submit\",\"manifest\":\"" +
                               manifest + "\"" + extra[i] + "}");
    ASSERT_TRUE(j.has_value());
    SubmitRequest req;
    std::string error;
    ASSERT_TRUE(ParseSubmitRequest(*j, &req, &error)) << error;
    EventLog log;
    ASSERT_TRUE(service.Submit(MakeJobSpec(req), log.Sink()).admitted);
    log.Wait();
    const Json terminal = log.Terminal();
    EXPECT_EQ(terminal.GetString("status"), "complete") << extra[i];
    reports[i] = terminal.GetString("report");
    if (i == 0) {
      EXPECT_EQ(reports[0], DirectReport(BuildPlan(req)));
    }
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
  service.Drain(false);
}

}  // namespace
}  // namespace gpustl::service
