// The daemon's transport: endpoint parsing, the length-framed NDJSON
// codec and its failure taxonomy (torn / too-large / timeout), the
// shared-secret handshake, the JobLedger's idempotent-submit and
// event-resume semantics, the worker broker's publish validation, and
// the Server end to end on unix and TCP endpoints — a submit must render
// the byte-identical report `gpustlc campaign --report` would, including
// under connection chaos, with no duplicated and no lost events; the unix
// listener's socket-file rules; and the TCP endpoint's refusal of submits
// that name daemon-side files.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <ctime>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/chaos.h"
#include "common/bitops.h"
#include "common/hash.h"
#include "common/rng.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "distrib/units.h"
#include "fault/faultsim.h"
#include "net/broker.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/handshake.h"
#include "net/ledger.h"
#include "net/net.h"
#include "net/remote_worker.h"
#include "net/server.h"
#include "service/protocol.h"
#include "service/service.h"
#include "stl/generators.h"
#include "store/result_store.h"

namespace gpustl::net {
namespace {

namespace fs = std::filesystem;
using service::Json;

std::string ScratchDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gpustl_net" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// --- Endpoint / hex / backoff ------------------------------------------------

TEST(NetTest, ParseEndpointAcceptsHostPortRejectsJunk) {
  const auto ep = ParseEndpoint("127.0.0.1:8080");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 8080);

  const auto ephemeral = ParseEndpoint("localhost:0");
  ASSERT_TRUE(ephemeral.has_value());
  EXPECT_EQ(ephemeral->port, 0);

  std::string error;
  EXPECT_FALSE(ParseEndpoint("no-port", &error).has_value());
  EXPECT_NE(error.find("host:port"), std::string::npos);
  EXPECT_FALSE(ParseEndpoint(":1234").has_value());     // empty host
  EXPECT_FALSE(ParseEndpoint("host:").has_value());     // empty port
  EXPECT_FALSE(ParseEndpoint("host:70000").has_value());
  EXPECT_FALSE(ParseEndpoint("host:-1").has_value());

  const auto unix_ep = ParseEndpoint("unix:/run/d:1.sock");
  ASSERT_TRUE(unix_ep.has_value());
  EXPECT_TRUE(unix_ep->is_unix());
  EXPECT_EQ(unix_ep->unix_path, "/run/d:1.sock");
  EXPECT_EQ(unix_ep->ToString(), "unix:/run/d:1.sock");
  EXPECT_FALSE(ParseEndpoint("unix:").has_value());  // empty path
  EXPECT_FALSE(ParseEndpoint("unix:/" + std::string(200, 'x'), &error));
  EXPECT_NE(error.find("too long"), std::string::npos) << error;
  EXPECT_EQ(ep->ToString(), "127.0.0.1:8080");
}

TEST(NetTest, HexCodecRoundTripsAndRejectsMalformed) {
  const std::string bytes("\x00\x01\xfe\xff GSRE", 9);
  const std::string hex = HexEncode(bytes);
  EXPECT_EQ(hex.size(), bytes.size() * 2);
  const auto back = HexDecode(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);

  EXPECT_TRUE(HexDecode("").has_value());
  EXPECT_TRUE(HexDecode("AbCd").has_value());  // both cases accepted
  EXPECT_FALSE(HexDecode("abc").has_value());  // odd length
  EXPECT_FALSE(HexDecode("zz").has_value());   // non-hex
}

TEST(NetTest, BackoffDelayStaysWithinEnvelope) {
  RetryPolicy policy;  // 50ms base, 2000ms cap, 0.5 jitter
  Rng rng(42);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const int d = BackoffDelayMs(policy, attempt, rng);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, policy.max_ms);
  }

  // Without jitter the schedule is exact doubling, capped.
  policy.jitter = 0.0;
  const int expected[] = {50, 100, 200, 400, 800, 1600, 2000, 2000};
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(BackoffDelayMs(policy, attempt, rng), expected[attempt])
        << "attempt " << attempt;
  }
}

TEST(NetTest, AcceptedAndConnectedEndsBothDisableNagle) {
  Endpoint endpoint{"127.0.0.1", 0, ""};
  std::string error;
  std::uint16_t port = 0;
  const int listen_fd = Listen(endpoint, &error, &port);
  ASSERT_GE(listen_fd, 0) << error;
  endpoint.port = port;
  const int client = Connect(endpoint, 2000, &error);
  ASSERT_GE(client, 0) << error;
  const int server = Accept(listen_fd);
  ASSERT_GE(server, 0);
  for (const int fd : {client, server}) {
    int value = 0;
    socklen_t len = sizeof(value);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
    EXPECT_EQ(value, 1) << (fd == client ? "client" : "server") << " end";
  }
  ::close(server);
  ::close(client);
  ::close(listen_fd);
}

// --- Frame codec -------------------------------------------------------------

/// A socketpair with a Conn on side 0 and a raw fd on side 1 (for
/// injecting malformed bytes). The raw fd is closed by the test or by
/// the destructor.
struct FramePair {
  FramePair(FrameLimits limits = {}) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    conn = std::make_unique<Conn>(fds[0], limits);
    raw = fds[1];
  }
  ~FramePair() {
    if (raw >= 0) ::close(raw);
  }
  void SendRaw(std::string_view bytes) {
    ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void CloseRaw() {
    ::close(raw);
    raw = -1;
  }

  std::unique_ptr<Conn> conn;
  int raw = -1;
};

TEST(FrameTest, RoundTripsJsonDocuments) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Conn a(fds[0]);
  Conn b(fds[1]);

  Json doc = Json::Object();
  doc.Set("op", "ping");
  doc.Set("n", 7);
  ASSERT_EQ(a.WriteJson(doc, 1000), IoStatus::kOk);
  ASSERT_EQ(a.WriteJson(doc, 1000), IoStatus::kOk);  // back-to-back frames

  Json got;
  ASSERT_EQ(b.ReadJson(&got, 1000), IoStatus::kOk);
  EXPECT_EQ(got.Dump(), doc.Dump());
  ASSERT_EQ(b.ReadJson(&got, 1000), IoStatus::kOk);
  EXPECT_EQ(got.Dump(), doc.Dump());

  // Orderly EOF reads as kClosed.
  a.Shutdown();
  EXPECT_EQ(b.ReadJson(&got, 1000), IoStatus::kClosed);
}

TEST(FrameTest, OversizedFrameIsRejectedAndClosesTheStream) {
  FrameLimits limits;
  limits.max_frame_bytes = 1024;
  FramePair p(limits);
  p.SendRaw("999999\n");
  std::string payload;
  EXPECT_EQ(p.conn->ReadFrame(&payload, 1000), IoStatus::kFrameTooLarge);
  EXPECT_TRUE(p.conn->closed());
}

TEST(FrameTest, TornFramesAreDetected) {
  {
    FramePair p;
    p.SendRaw("not-a-length\n");
    std::string payload;
    EXPECT_EQ(p.conn->ReadFrame(&payload, 1000), IoStatus::kTorn);
    EXPECT_TRUE(p.conn->closed());
  }
  {
    // Connection lost mid-payload: the declared length never arrives.
    FramePair p;
    p.SendRaw("10\nabc");
    p.CloseRaw();
    std::string payload;
    EXPECT_EQ(p.conn->ReadFrame(&payload, 1000), IoStatus::kTorn);
  }
}

TEST(FrameTest, ReadTimeoutLeavesPartialInputBuffered) {
  FramePair p;
  p.SendRaw("5\nhel");  // header + partial payload
  std::string payload;
  EXPECT_EQ(p.conn->ReadFrame(&payload, 50), IoStatus::kTimeout);
  EXPECT_FALSE(p.conn->closed()) << "timeout must not kill the stream";
  p.SendRaw("lo\n");  // the rest arrives late
  EXPECT_EQ(p.conn->ReadFrame(&payload, 1000), IoStatus::kOk);
  EXPECT_EQ(payload, "hello");
}

TEST(FrameTest, ChaosSitesInjectAtTaggedWrites) {
  {
    chaos::ScopedChaos scoped("conn-drop@event#1", 1);
    FramePair p;
    EXPECT_EQ(p.conn->WriteFrame("x", 1000, "event"), IoStatus::kClosed);
    EXPECT_TRUE(p.conn->closed());
    EXPECT_GE(chaos::Engine()->injected(), 1u);
  }
  {
    chaos::ScopedChaos scoped("slow-peer@event#1", 1);
    FramePair p;
    EXPECT_EQ(p.conn->WriteFrame("x", 1000, "event"), IoStatus::kTimeout);
    EXPECT_TRUE(p.conn->closed());
  }
  {
    // partial-write sends a prefix then drops: the reader sees a torn
    // frame, never a silently short payload.
    chaos::ScopedChaos scoped("partial-write@event#1", 1);
    FramePair p;
    EXPECT_EQ(p.conn->WriteFrame("hello world payload", 1000, "event"),
              IoStatus::kClosed);
    std::string payload;
    Conn reader(p.raw);
    p.raw = -1;  // reader owns it now
    EXPECT_EQ(reader.ReadFrame(&payload, 1000), IoStatus::kTorn);
  }
}

// --- Handshake ---------------------------------------------------------------

struct HandshakePair {
  HandshakePair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server = std::make_unique<Conn>(fds[0]);
    client = std::make_unique<Conn>(fds[1]);
  }
  std::unique_ptr<Conn> server;
  std::unique_ptr<Conn> client;
};

TEST(HandshakeTest, SucceedsWithSharedSecretAndCarriesRole) {
  HandshakePair p;
  HandshakeResult server_result;
  std::thread t([&] {
    server_result = ServerHandshake(*p.server, "sesame", 2000);
  });
  const HandshakeResult client_result =
      ClientHandshake(*p.client, "sesame", "worker", 2000);
  t.join();
  EXPECT_TRUE(server_result.ok) << server_result.error;
  EXPECT_TRUE(client_result.ok) << client_result.error;
  EXPECT_EQ(server_result.role, "worker");
}

TEST(HandshakeTest, BadSecretIsFatalForTheClient) {
  HandshakePair p;
  HandshakeResult server_result;
  std::thread t([&] {
    server_result = ServerHandshake(*p.server, "sesame", 2000);
  });
  const HandshakeResult client_result =
      ClientHandshake(*p.client, "wrong", "client", 2000);
  t.join();
  EXPECT_FALSE(server_result.ok);
  EXPECT_FALSE(client_result.ok);
  EXPECT_TRUE(client_result.fatal)
      << "retrying a bad secret would hammer a daemon that never says yes";
  EXPECT_NE(client_result.error.find("bad-secret"), std::string::npos);
}

TEST(HandshakeTest, EmptyServerSecretAcceptsAnyProof) {
  HandshakePair p;
  HandshakeResult server_result;
  std::thread t([&] {
    server_result = ServerHandshake(*p.server, "", 2000);
  });
  const HandshakeResult client_result =
      ClientHandshake(*p.client, "whatever", "client", 2000);
  t.join();
  EXPECT_TRUE(server_result.ok);
  EXPECT_TRUE(client_result.ok);
}

TEST(HandshakeTest, ChaosAbortReadsAsRetryable) {
  chaos::ScopedChaos scoped("handshake-fail#1", 1);
  HandshakePair p;
  HandshakeResult server_result;
  std::thread t([&] {
    server_result = ServerHandshake(*p.server, "sesame", 2000);
  });
  const HandshakeResult client_result =
      ClientHandshake(*p.client, "sesame", "client", 2000);
  t.join();
  EXPECT_FALSE(server_result.ok);
  EXPECT_FALSE(client_result.ok);
  EXPECT_FALSE(client_result.fatal)
      << "a torn handshake must feed the backoff schedule, not abort";
}

TEST(HandshakeTest, ProofIsNonceAndSecretDependent) {
  const std::string nonce = MakeNonce();
  EXPECT_EQ(nonce.size(), 32u);
  EXPECT_NE(nonce, MakeNonce());
  EXPECT_NE(AuthProof(nonce, "a"), AuthProof(nonce, "b"));
  EXPECT_NE(AuthProof(MakeNonce(), "a"), AuthProof(MakeNonce(), "a"));
  EXPECT_EQ(AuthProof(nonce, "a"), AuthProof(nonce, "a"));
}

// --- JobLedger ---------------------------------------------------------------

Json Event(const char* kind) {
  Json e = Json::Object();
  e.Set("event", kind);
  return e;
}

TEST(JobLedgerTest, StampsSeqDedupsAndReplaysTheMissingTail) {
  JobLedger ledger(8);
  std::vector<Json> first;
  auto info = ledger.Open("job-1", 0,
                          [&](const Json& e) { first.push_back(e); });
  ASSERT_TRUE(info.created);
  info.record(Event("queued"));
  info.record(Event("stage"));
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].GetInt("seq"), 1);
  EXPECT_EQ(first[1].GetInt("seq"), 2);
  EXPECT_EQ(first[0].GetString("client_job"), "job-1");

  // Reconnect that already saw seq 1: replay delivers only seq 2, then
  // live events flow to the new attachment (last connection wins).
  std::vector<Json> second;
  auto info2 = ledger.Open("job-1", 1,
                           [&](const Json& e) { second.push_back(e); });
  EXPECT_FALSE(info2.created) << "same client_job must not start a duplicate";
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].GetInt("seq"), 2);

  info.record(Event("complete"));
  EXPECT_EQ(first.size(), 2u) << "stale attachment must stop receiving";
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[1].GetInt("seq"), 3);

  // Terminal entries are retained: a full replay recovers the whole
  // stream including the terminal event.
  std::vector<Json> third;
  auto info3 = ledger.Open("job-1", 0,
                           [&](const Json& e) { third.push_back(e); });
  EXPECT_FALSE(info3.created);
  EXPECT_TRUE(info3.terminal);
  ASSERT_EQ(third.size(), 3u);
  EXPECT_EQ(third[2].GetString("event"), "complete");
}

TEST(JobLedgerTest, EvictsOldestTerminalEntriesBeyondTheBound) {
  JobLedger ledger(2);
  for (int i = 0; i < 3; ++i) {
    auto info = ledger.Open("job-" + std::to_string(i), 0,
                            [](const Json&) {});
    ASSERT_TRUE(info.created);
    info.record(Event("complete"));
  }
  EXPECT_EQ(ledger.size(), 2u);
  // The oldest finished job fell off the LRU; reopening it starts fresh.
  auto again = ledger.Open("job-0", 0, [](const Json&) {});
  EXPECT_TRUE(again.created);
  // The newest is still replayable.
  bool saw_terminal = false;
  auto kept = ledger.Open("job-2", 0, [&](const Json& e) {
    saw_terminal = e.GetString("event") == "complete";
  });
  EXPECT_FALSE(kept.created);
  EXPECT_TRUE(saw_terminal);
}

// --- Broker publish validation ----------------------------------------------

std::string PutU32(std::uint32_t v) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return out;
}

/// A well-formed entry of the store's current format, keyed by `key`.
std::string MakeEntryBytes(const Hash128& key) {
  fault::FaultSimResult result;
  result.first_detect = {0, fault::FaultSimResult::kNotDetected, 1};
  result.detects_per_pattern = {1, 1};
  result.num_detected = 2;
  result.detected_mask = BitVec(3);
  result.detected_mask.Set(0, true);
  result.detected_mask.Set(2, true);
  return store::ResultStore::EncodeEntry(key, result);
}

/// `entry` relabelled as another format version (the u32 after the magic).
std::string WithFormatVersion(std::string entry, std::uint32_t version) {
  entry.replace(4, 4, PutU32(version));
  return entry;
}

TEST(BrokerTest, PublishValidatesInstallsAndIsIdempotent) {
  const std::string distrib = ScratchDir("broker-distrib");
  const std::string cache = ScratchDir("broker-cache");
  BrokerOptions options;
  options.distrib_dir = distrib;
  options.cache_dir = cache;
  WorkBroker broker(options);
  auto session = broker.OpenSession("test-owner");

  Hash128 key{0x1122334455667788ull, 0x99aabbccddeeff00ull};
  const std::string bytes = MakeEntryBytes(key);

  Json publish;
  publish.Set("op", "publish");
  publish.Set("key", key.ToHex());
  publish.Set("data", HexEncode(bytes));
  EXPECT_EQ(session->Handle(publish).GetString("op"), "ok");
  EXPECT_TRUE(fs::exists(cache + "/" + key.ToHex() + ".gsr"));
  EXPECT_EQ(session->Handle(publish).GetString("op"), "ok") << "re-publish";

  // A flipped payload byte fails the checksum — the upload is refused.
  std::string corrupt = bytes;
  corrupt.back() ^= 0x01;
  Json bad = publish;
  bad.Set("data", HexEncode(corrupt));
  const Json reply = session->Handle(bad);
  EXPECT_EQ(reply.GetString("op"), "error");
  EXPECT_NE(reply.GetString("error").find("checksum"), std::string::npos);

  // A key that doesn't match the embedded one is refused too.
  Hash128 other{1, 2};
  Json wrong_key = publish;
  wrong_key.Set("key", other.ToHex());
  EXPECT_EQ(session->Handle(wrong_key).GetString("op"), "error");

  // An upload in another format version is refused.
  Json stale = publish;
  stale.Set("data", HexEncode(WithFormatVersion(bytes, 1)));
  const Json stale_reply = session->Handle(stale);
  EXPECT_EQ(stale_reply.GetString("op"), "error");
  EXPECT_NE(stale_reply.GetString("error").find("format version"),
            std::string::npos);
}

TEST(BrokerTest, PublishReplacesAnOlderFormatEntry) {
  const std::string cache = ScratchDir("broker-stale-cache");
  BrokerOptions options;
  options.distrib_dir = ScratchDir("broker-stale-distrib");
  options.cache_dir = cache;
  WorkBroker broker(options);
  auto session = broker.OpenSession("test-owner");

  // A store written before a format upgrade holds an older entry at the
  // key. A fresh upload must replace it, not be swallowed as a re-publish.
  const Hash128 key{0x0102030405060708ull, 0x1112131415161718ull};
  const std::string bytes = MakeEntryBytes(key);
  const std::string path = cache + "/" + key.ToHex() + ".gsr";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << WithFormatVersion(bytes, 1);
  }

  Json publish;
  publish.Set("op", "publish");
  publish.Set("key", key.ToHex());
  publish.Set("data", HexEncode(bytes));
  EXPECT_EQ(session->Handle(publish).GetString("op"), "ok");

  std::ifstream in(path, std::ios::binary);
  const std::string installed((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  EXPECT_EQ(installed, bytes);
  store::ResultStore store(cache);
  EXPECT_TRUE(store.Load(key).has_value());
}

TEST(BrokerTest, FetchOnEmptyPoolIsIdleAndRenewWithoutLeaseIsLost) {
  // The distrib dir sits one level down, so a `../../` unit name resolves
  // inside this test's scratch directory.
  const std::string root = ScratchDir("broker-empty");
  const std::string distrib = root + "/d";
  distrib::InitDistribDir(distrib);
  BrokerOptions options;
  options.distrib_dir = distrib;
  options.cache_dir = ScratchDir("broker-empty-cache");
  WorkBroker broker(options);
  auto session = broker.OpenSession("test-owner");

  Json fetch;
  fetch.Set("op", "fetch");
  EXPECT_EQ(session->Handle(fetch).GetString("op"), "idle");

  Json renew;
  renew.Set("op", "renew");
  renew.Set("unit", "000");
  EXPECT_EQ(session->Handle(renew).GetString("op"), "lease-lost");

  Json bogus;
  bogus.Set("op", "frobnicate");
  EXPECT_EQ(session->Handle(bogus).GetString("op"), "error");

  // release names only units this session leased, done also a posted
  // one: a path outside the distrib dir is never written or unlinked.
  const std::string victim = root + "/x.claim";
  { std::ofstream(victim) << "not the broker's\n"; }
  for (const char* op : {"done", "release"}) {
    Json escape;
    escape.Set("op", op);
    escape.Set("unit", "../../x");
    EXPECT_EQ(session->Handle(escape).GetString("op"), "lease-lost") << op;
  }
  EXPECT_TRUE(fs::exists(victim));
  EXPECT_FALSE(fs::exists(root + "/x.done"));

  // A well-formed name that is not posted is refused the same way.
  for (const char* op : {"done", "release"}) {
    Json unposted;
    unposted.Set("op", op);
    unposted.Set("unit", "0123456789abcdef0123456789abcdef");
    EXPECT_EQ(session->Handle(unposted).GetString("op"), "lease-lost") << op;
  }
  EXPECT_TRUE(fs::is_empty(distrib::DoneDir(distrib)));

  // Another session's claim is not this one's to release.
  distrib::WorkUnit unit;
  unit.target_token = "DU";
  unit.ptp = stl::GenerateImm(4, 1);
  const std::string name = distrib::WriteUnitFile(distrib, unit);
  auto owner = broker.OpenSession("other-owner");
  const Json leased = owner->Handle(fetch);
  ASSERT_EQ(leased.GetString("op"), "unit");
  ASSERT_EQ(leased.GetString("unit"), name);
  const std::string claim = distrib::ClaimsDir(distrib) + "/" + name + ".claim";
  const std::string marker = distrib::DoneDir(distrib) + "/" + name + ".done";
  Json release;
  release.Set("op", "release");
  release.Set("unit", name);
  EXPECT_EQ(session->Handle(release).GetString("op"), "lease-lost");
  EXPECT_TRUE(fs::exists(claim));
  EXPECT_FALSE(fs::exists(marker));

  // A done for a posted unit the session does not hold (a worker that
  // reconnected after publishing) writes the marker and leaves the
  // holder's claim alone.
  Json done;
  done.Set("op", "done");
  done.Set("unit", name);
  EXPECT_EQ(session->Handle(done).GetString("op"), "ok");
  EXPECT_TRUE(fs::exists(marker));
  EXPECT_TRUE(fs::exists(claim));
  EXPECT_EQ(owner->held(), 1u);

  // The leaseholder's done still writes the marker and drops its claim.
  fs::remove(marker);
  EXPECT_EQ(owner->Handle(done).GetString("op"), "ok");
  EXPECT_TRUE(fs::exists(marker));
  EXPECT_FALSE(fs::exists(claim));
  EXPECT_EQ(owner->held(), 0u);
}

// --- Remote worker -----------------------------------------------------------

TEST(RemoteWorkerTest, OutOfRangeLeasesKeepTheRenewPeriodDefined) {
  // A daemon may send any double as `lease_seconds`. The renew thread
  // waits a third of it, converted to integer nanoseconds: 1e300 and 1e999
  // (inf) must not reach that conversion (the float-cast-overflow
  // sanitizer leg catches it). A fake daemon hands out one unit under each
  // lease, then says the campaign is done.
  const std::string dir = ScratchDir("remote-lease");
  Endpoint endpoint;
  endpoint.unix_path = dir + "/s";
  std::string error;
  const int listen_fd = Listen(endpoint, &error);
  ASSERT_GE(listen_fd, 0) << error;

  distrib::WorkUnit unit;
  unit.target_token = "DU";
  unit.ptp = stl::GenerateImm(4, 1);
  distrib::InitDistribDir(dir + "/d");
  const std::string name = distrib::WriteUnitFile(dir + "/d", unit);
  std::ifstream in(distrib::UnitsDir(dir + "/d") + "/" + name + ".unit",
                   std::ios::binary);
  const std::string hex = HexEncode(std::string(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()));

  int published = 0;
  std::thread daemon([&] {
    Conn conn(Accept(listen_fd));
    if (!ServerHandshake(conn, "", 5000).ok) return;
    for (const char* lease : {"1e300", "1e999", ""}) {
      for (;;) {
        Json request;
        if (conn.ReadJson(&request, 30000) != IoStatus::kOk) return;
        const std::string op = request.GetString("op", "");
        if (op == "fetch") break;
        published += op == "publish" ? 1 : 0;
        conn.WriteFrame(R"({"op":"ok"})", 5000);
      }
      conn.WriteFrame(*lease == '\0'
                          ? std::string(R"({"op":"idle","done":true})")
                          : R"({"op":"unit","unit":")" + name +
                                R"(","lease_seconds":)" + lease +
                                R"(,"data":")" + hex + R"("})",
                      5000);
    }
  });
  RemoteWorkerOptions options;
  options.endpoint = endpoint;
  options.scratch_dir = dir + "/scratch";
  const distrib::WorkerStats stats = RunRemoteWorker(options);
  daemon.join();
  CloseListener(listen_fd, endpoint);
  EXPECT_EQ(stats.units_done, 2u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(published, 2);
}

// --- Server end to end ------------------------------------------------------

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

/// The report `gpustlc campaign --report` would write for the same plan.
std::string DirectReport(const std::vector<compact::PlanEntry>& plan) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const netlist::Netlist fp32 = circuits::BuildFp32();
  compact::CompactorOptions base;
  compact::StlCampaign campaign(du, sp, sfu, base, &fp32);
  for (const auto& pe : plan) campaign.Process(pe.entry);
  return compact::RenderCampaignReport(campaign.records(),
                                       campaign.Summary());
}

service::SubmitRequest TinyRequest() {
  service::SubmitRequest req;
  service::SubmitEntry entry;
  entry.asm_text = kTinyAsm;
  entry.module = "DU";
  req.entries.push_back(entry);
  entry.module = "SP";
  entry.compact = false;
  req.entries.push_back(entry);
  return req;
}

Json TinySubmitDoc() {
  Json req = Json::Object();
  req.Set("op", "submit");
  Json entries = Json::Array();
  Json e1 = Json::Object();
  e1.Set("asm", kTinyAsm);
  e1.Set("module", "DU");
  entries.Append(std::move(e1));
  Json e2 = Json::Object();
  e2.Set("asm", kTinyAsm);
  e2.Set("module", "SP");
  e2.Set("mode", "carry");
  entries.Append(std::move(e2));
  req.Set("entries", std::move(entries));
  return req;
}

/// A live Server on an ephemeral TCP port and a unix socket, wrapping a
/// 2-worker service.
struct ServerFixture {
  explicit ServerFixture(std::string secret = "sesame",
                         BrokerOptions broker_options = {}) {
    service::ServiceOptions sopts;
    sopts.workers = 2;
    svc = std::make_unique<service::CampaignService>(sopts);
    ServerOptions options;
    socket_path = ScratchDir("server-fixture") + "/d.sock";
    options.endpoints = {{"127.0.0.1", 0, ""}, {"", 0, socket_path}};
    options.secret = secret;
    options.worker_slice_ms = 100;  // brisk lease sweeps for tests
    server = std::make_unique<Server>(*svc, WorkBroker(broker_options),
                                      options);
    std::string error;
    started = server->Start(&error);
    EXPECT_TRUE(started) << error;
    if (started) {
      serve = std::thread([this] {
        server->Serve();
        served = true;
      });
    }
  }

  ~ServerFixture() { Stop(); }

  /// RequestStop (unless a `shutdown` op already stopped the loop), then
  /// the daemon's drain order.
  void Stop(bool request = true) {
    if (!started) return;
    started = false;
    if (request) server->RequestStop();
    serve.join();
    svc->Drain(false);
    server->JoinConnections();
  }

  /// A channel to the TCP endpoint, or to the unix one.
  ChannelOptions Channel(std::string secret = "sesame", bool unix = false) {
    ChannelOptions copts;
    copts.endpoint = server->endpoints()[unix ? 1 : 0];
    copts.secret = std::move(secret);
    return copts;
  }

  std::unique_ptr<service::CampaignService> svc;
  std::unique_ptr<Server> server;
  std::string socket_path;
  std::thread serve;
  std::atomic<bool> served{false};  // Serve returned
  bool started = false;
};

/// Counts the terminal events (complete/failed/rejected) of a stream.
long Terminals(const std::vector<Json>& events) {
  return std::count_if(events.begin(), events.end(), [](const Json& e) {
    const std::string kind = e.GetString("event");
    return kind == "complete" || kind == "failed" || kind == "rejected";
  });
}

TEST(ServerTest, PingAndStatusRoundTrip) {
  ServerFixture fx;
  NetChannel channel(fx.Channel());
  std::string error;
  ASSERT_TRUE(channel.EnsureConnected(&error)) << error;

  Json ping;
  ping.Set("op", "ping");
  const auto pong = channel.Call(ping, 5000);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->GetString("event"), "pong");

  Json status;
  status.Set("op", "status");
  const auto st = channel.Call(status, 5000);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->GetInt("workers"), 2);
}

TEST(ServerTest, WrongSecretFailsFastAndFatal) {
  ServerFixture fx;
  ChannelOptions copts = fx.Channel("not-sesame");
  copts.retry.attempts = 4;
  NetChannel channel(copts);
  std::string error;
  bool fatal = false;
  EXPECT_FALSE(channel.EnsureConnected(&error, &fatal));
  EXPECT_TRUE(fatal) << "bad-secret must not burn the retry budget";
}

TEST(ServerTest, SubmitStreamsEventsAndMatchesDirectReport) {
  ServerFixture fx;
  NetChannel channel(fx.Channel());

  std::vector<Json> events;
  const SubmitOutcome outcome =
      ResumableSubmit(channel, TinySubmitDoc(), GenerateClientJobId(),
                      [&](const Json& e) { events.push_back(e); });
  ASSERT_FALSE(outcome.transport_error) << outcome.transport_detail;
  EXPECT_EQ(outcome.terminal.GetString("status"), "complete");
  EXPECT_EQ(outcome.terminal.GetInt("entries"), 2);
  EXPECT_EQ(outcome.terminal.GetString("report"),
            DirectReport(service::BuildPlan(TinyRequest())))
      << "a TCP submit must render the byte-identical gpustlc report";

  // The stream is gapless and ends in exactly one terminal event.
  ASSERT_GE(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].GetInt("seq"), static_cast<int>(i) + 1);
  }
  EXPECT_EQ(events.front().GetString("event"), "queued");
  EXPECT_EQ(events.back().GetString("event"), "complete");
  EXPECT_EQ(Terminals(events), 1);
}

TEST(ServerTest, SubmitWithoutClientJobIsRejected) {
  ServerFixture fx;
  NetChannel channel(fx.Channel());
  std::string error;
  ASSERT_TRUE(channel.EnsureConnected(&error)) << error;

  Json req = TinySubmitDoc();  // no client_job on purpose
  ASSERT_TRUE(channel.Send(req));
  Json reply;
  ASSERT_EQ(channel.Read(&reply, 5000), IoStatus::kOk);
  EXPECT_EQ(reply.GetString("event"), "rejected");
  EXPECT_NE(reply.GetString("detail").find("client_job"), std::string::npos);
}

TEST(ServerTest, DuplicateSubmitAttachesInsteadOfStartingTwice) {
  ServerFixture fx;
  const std::string client_job = GenerateClientJobId();

  NetChannel first(fx.Channel());
  std::vector<Json> events1;
  const SubmitOutcome o1 =
      ResumableSubmit(first, TinySubmitDoc(), client_job,
                      [&](const Json& e) { events1.push_back(e); });
  ASSERT_FALSE(o1.transport_error) << o1.transport_detail;

  // Same client_job from a fresh connection: the ledger replays the
  // recorded stream instead of running the job again.
  NetChannel second(fx.Channel());
  std::vector<Json> events2;
  const SubmitOutcome o2 =
      ResumableSubmit(second, TinySubmitDoc(), client_job,
                      [&](const Json& e) { events2.push_back(e); });
  ASSERT_FALSE(o2.transport_error) << o2.transport_detail;

  ASSERT_EQ(events1.size(), events2.size());
  for (std::size_t i = 0; i < events1.size(); ++i) {
    EXPECT_EQ(events1[i].Dump(), events2[i].Dump());
  }
  EXPECT_EQ(fx.server->ledger().size(), 1u)
      << "one client_job must mean one ledger entry";
}

TEST(ServerTest, EventStreamResumesAcrossChaosConnDrops) {
  // Drop the server->client connection on the 2nd event write: the
  // client must reconnect, resume from its last seq, and still see a
  // gapless stream with one terminal event and the identical report.
  chaos::ScopedChaos scoped("conn-drop@event#2", 1);
  ServerFixture fx;
  NetChannel channel(fx.Channel());

  std::vector<Json> events;
  const SubmitOutcome outcome =
      ResumableSubmit(channel, TinySubmitDoc(), GenerateClientJobId(),
                      [&](const Json& e) { events.push_back(e); });
  ASSERT_FALSE(outcome.transport_error) << outcome.transport_detail;
  EXPECT_GE(chaos::Engine()->injected(), 1u) << "chaos must actually fire";

  EXPECT_EQ(outcome.terminal.GetString("status"), "complete");
  EXPECT_EQ(outcome.terminal.GetString("report"),
            DirectReport(service::BuildPlan(TinyRequest())))
      << "chaos on the transport must never change the report";
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].GetInt("seq"), static_cast<int>(i) + 1)
        << "resume must neither duplicate nor lose events";
  }
  EXPECT_EQ(events.back().GetString("event"), "complete");
}

TEST(ServerTest, WorkerConnectionRefusedWithoutDistribDir) {
  ServerFixture fx;  // no broker options: broker disabled
  ChannelOptions copts = fx.Channel();
  copts.role = "worker";
  NetChannel channel(copts);
  std::string error;
  ASSERT_TRUE(channel.EnsureConnected(&error)) << error;

  Json reply;
  ASSERT_EQ(channel.Read(&reply, 5000), IoStatus::kOk);
  EXPECT_EQ(reply.GetString("op"), "error");
  EXPECT_NE(reply.GetString("error").find("distrib"), std::string::npos);
}

TEST(ServerTest, WorkerFetchSeesIdleOnEmptyPool) {
  BrokerOptions broker;
  broker.distrib_dir = ScratchDir("tcp-worker-distrib");
  broker.cache_dir = ScratchDir("tcp-worker-cache");
  ServerFixture fx("sesame", broker);
  ChannelOptions copts = fx.Channel();
  copts.role = "worker";
  NetChannel channel(copts);
  std::string error;
  ASSERT_TRUE(channel.EnsureConnected(&error)) << error;

  Json fetch;
  fetch.Set("op", "fetch");
  const auto reply = channel.Call(fetch, 5000, "fetch");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->GetString("op"), "idle");
  EXPECT_FALSE(reply->GetBool("done"));
}

TEST(ServerTest, UnixSubmitSurvivesChaosConnDrops) {
  // The unix endpoint runs the same ledger as TCP: a connection dropped
  // on the 2nd event write resumes with no lost and no repeated seq.
  chaos::ScopedChaos scoped("conn-drop@event#2", 1);
  ServerFixture fx;
  NetChannel channel(fx.Channel("sesame", /*unix=*/true));

  std::vector<Json> events;
  const SubmitOutcome outcome =
      ResumableSubmit(channel, TinySubmitDoc(), GenerateClientJobId(),
                      [&](const Json& e) { events.push_back(e); });
  ASSERT_FALSE(outcome.transport_error) << outcome.transport_detail;
  EXPECT_GE(chaos::Engine()->injected(), 1u) << "chaos must actually fire";
  EXPECT_EQ(outcome.terminal.GetString("report"),
            DirectReport(service::BuildPlan(TinyRequest())));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].GetInt("seq"), static_cast<int>(i) + 1);
  }
  EXPECT_EQ(Terminals(events), 1);
  EXPECT_EQ(events.back().GetString("event"), "complete");
}

TEST(ServerTest, ShutdownOnEitherEndpointStopsTheOneAcceptLoop) {
  for (const bool unix : {false, true}) {
    ServerFixture fx;
    NetChannel channel(fx.Channel("sesame", unix));
    Json shutdown;
    shutdown.Set("op", "shutdown");
    std::string error;
    ASSERT_TRUE(channel.EnsureConnected(&error)) << error;
    const auto ok = channel.Call(shutdown, 5000);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->GetString("event"), "ok");

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!fx.served && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(fx.served) << (unix ? "unix" : "tcp")
                           << " shutdown must end the accept loop";
    fx.Stop(/*request=*/!fx.served);
  }
}

TEST(ServerTest, SocketFileIsGoneAfterJoinConnections) {
  ServerFixture fx;
  EXPECT_TRUE(fs::exists(fx.socket_path));
  fx.Stop();
  EXPECT_FALSE(fs::exists(fx.socket_path));
}

/// Descriptors this process holds now.
long OpenFdCount() {
  return std::distance(fs::directory_iterator("/proc/self/fd"),
                       fs::directory_iterator{});
}

TEST(ServerTest, EndedConnectionsReleaseTheirDescriptors) {
  // A long-running daemon must not hold one fd per past client: each
  // connection closes its descriptor as it ends, on either endpoint.
  ServerFixture fx;
  Json ping;
  ping.Set("op", "ping");
  const auto ping_and_hang_up = [&](bool unix) {
    NetChannel channel(fx.Channel("sesame", unix));
    std::string error;
    ASSERT_TRUE(channel.EnsureConnected(&error)) << error;
    const auto pong = channel.Call(ping, 5000);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->GetString("event"), "pong");
  };
  const auto settles_at = [](long target) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (OpenFdCount() > target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return OpenFdCount();
  };
  const long baseline = OpenFdCount();
  for (int i = 0; i < 40; ++i) {
    ping_and_hang_up(/*unix=*/i % 2 == 0);
  }
  EXPECT_EQ(settles_at(baseline), baseline)
      << "connections that ended still hold descriptors";
}

TEST(ServerTest, AcceptLoopBacksOffAtTheFdLimit) {
  // A daemon out of descriptors must not spin: accept fails with EMFILE,
  // the refused connection stays queued, and the listener polls readable
  // again at once. The server runs in a child that lowers its own fd
  // limit, so only a couple of dozen connections fill it.
  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const rlimit limit{32, 32};
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(2);
    service::ServiceOptions sopts;
    sopts.workers = 1;
    service::CampaignService svc(sopts);
    ServerOptions options;
    options.endpoints = {{"127.0.0.1", 0, ""}};
    options.secret = "sesame";
    options.handshake_deadline_ms = 60000;  // held peers stay connected
    Server server(svc, WorkBroker(BrokerOptions{}), options);
    std::string error;
    if (!server.Start(&error)) ::_exit(3);
    const std::uint16_t port = server.endpoints()[0].port;
    if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port)) {
      ::_exit(4);
    }
    server.Serve();
    ::_exit(0);
  }
  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);
  const Endpoint endpoint{"127.0.0.1", port, ""};

  // The server greets every connection it accepts, so a connection with
  // nothing to read after a second was left queued: the table is full.
  const auto greeted = [](int fd, int timeout_ms) {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, timeout_ms) == 1;
  };
  std::vector<int> held;
  int pending = -1;
  for (int i = 0; i < 64 && pending < 0; ++i) {
    std::string error;
    const int fd = Connect(endpoint, 5000, &error);
    ASSERT_GE(fd, 0) << error;
    if (greeted(fd, 1000)) {
      held.push_back(fd);
    } else {
      pending = fd;
    }
  }
  ASSERT_GE(pending, 0) << "the fd limit was never reached";
  EXPECT_GE(held.size(), 10u);

  const auto cpu_ms = [&] {
    clockid_t clock;
    timespec ts{};
    if (::clock_getcpuclockid(child, &clock) != 0 ||
        ::clock_gettime(clock, &ts) != 0) {
      return -1.0;
    }
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const double cpu_before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_spent = cpu_ms() - cpu_before;
  ASSERT_GE(cpu_before, 0.0);
  EXPECT_LT(cpu_spent, 100.0) << "the accept loop spins at the fd limit";

  // One peer leaves; the queued connection is accepted and served.
  ::close(held.back());
  held.pop_back();
  EXPECT_TRUE(greeted(pending, 5000));
  Conn conn(pending);
  const HandshakeResult hs = ClientHandshake(conn, "sesame", "client", 5000);
  EXPECT_TRUE(hs.ok) << hs.error;
  Json ping;
  ping.Set("op", "ping");
  Json pong;
  ASSERT_EQ(conn.WriteJson(ping, 5000), IoStatus::kOk);
  ASSERT_EQ(conn.ReadJson(&pong, 5000), IoStatus::kOk);
  EXPECT_EQ(pong.GetString("event"), "pong");

  for (const int fd : held) ::close(fd);
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
}

TEST(ServerTest, TcpSubmitsNamingDaemonFilesAreRejectedUnixCheckpointsComplete) {
  const std::string dir = ScratchDir("confined");
  {
    std::ofstream(dir + "/tiny.asm") << kTinyAsm;
    std::ofstream(dir + "/manifest.txt") << "tiny.asm DU compact\n"
                                         << "tiny.asm SP carry\n";
  }
  const std::string ckpt = dir + "/ckpt";
  struct Case {
    Json doc;
    std::string field;
  };
  std::vector<Case> cases(3);
  cases[0].doc.Set("op", "submit");
  cases[0].doc.Set("manifest", dir + "/manifest.txt");
  cases[0].field = "manifest";
  cases[1].doc = TinySubmitDoc();
  Json entries = Json::Array();
  Json by_path = Json::Object();
  by_path.Set("path", dir + "/tiny.asm");
  by_path.Set("module", "DU");
  entries.Append(std::move(by_path));
  entries.Append(cases[1].doc.Find("entries")->items()[1]);
  cases[1].doc.Set("entries", std::move(entries));
  cases[1].field = "entries[0].path";
  cases[2].doc = TinySubmitDoc();
  cases[2].doc.Set("checkpoint_dir", ckpt);
  cases[2].field = "checkpoint_dir";

  // Every open or create inside `dir` from here on shows up here.
  const int watch = ::inotify_init1(IN_NONBLOCK);
  ASSERT_GE(watch, 0);
  ASSERT_GE(::inotify_add_watch(watch, dir.c_str(), IN_OPEN | IN_CREATE), 0);
  const auto touched = [watch] {
    char buf[4096];
    bool any = false;
    while (::read(watch, buf, sizeof(buf)) > 0) any = true;
    return any;
  };
  // Submits `c` twice under one client_job (the second is a resubmit:
  // the ledger replays the rejection) and expects one `bad-request`
  // naming the field, before `queued`.
  const auto expect_rejected = [](NetChannel& channel, const Case& c) {
    const std::string client_job = GenerateClientJobId();
    for (int attempt = 0; attempt < 2; ++attempt) {
      std::vector<Json> events;
      const SubmitOutcome o =
          ResumableSubmit(channel, c.doc, client_job,
                          [&](const Json& e) { events.push_back(e); });
      ASSERT_FALSE(o.transport_error) << o.transport_detail;
      ASSERT_EQ(events.size(), 1u) << c.field << ": rejected before queued";
      EXPECT_EQ(events[0].GetString("event"), "rejected");
      EXPECT_EQ(events[0].GetString("reason"), "bad-request");
      EXPECT_EQ(events[0].GetString("detail").rfind(c.field + " ", 0), 0u)
          << events[0].GetString("detail");
      EXPECT_EQ(events[0].GetInt("seq"), 1);
    }
  };

  ServerFixture fx;
  for (const Case& c : cases) {
    NetChannel tcp(fx.Channel());
    expect_rejected(tcp, c);
  }
  EXPECT_FALSE(touched()) << "a TCP submit opened or created a file";
  EXPECT_FALSE(fs::exists(ckpt));
  EXPECT_EQ(fx.svc->counters().submitted, 0u);

  // On the unix socket the daemon still reads no PTP file: only the
  // checkpoint directory, which it writes, is unix-only rather than gone.
  for (const Case& c : {cases[0], cases[1]}) {
    NetChannel local(fx.Channel("sesame", /*unix=*/true));
    expect_rejected(local, c);
  }
  EXPECT_FALSE(touched()) << "a unix submit opened a PTP or manifest file";
  EXPECT_EQ(fx.svc->counters().submitted, 0u);

  NetChannel local(fx.Channel("sesame", /*unix=*/true));
  const SubmitOutcome o = ResumableSubmit(local, cases[2].doc,
                                          GenerateClientJobId(),
                                          [](const Json&) {});
  ASSERT_FALSE(o.transport_error) << o.transport_detail;
  EXPECT_EQ(o.terminal.GetString("status"), "complete");
  EXPECT_EQ(o.terminal.GetString("report"),
            DirectReport(service::BuildPlan(TinyRequest())));
  EXPECT_TRUE(touched()) << "the unix submit must have written its checkpoint";
  EXPECT_TRUE(fs::exists(ckpt));
  ::close(watch);
}

// --- The unix listener's socket file ----------------------------------------

std::unique_ptr<Server> UnixServer(service::CampaignService& service,
                                   const std::string& path) {
  ServerOptions options;
  options.endpoints = {{"", 0, path}};
  return std::make_unique<Server>(service, WorkBroker(BrokerOptions{}),
                                  options);
}

service::ServiceOptions OneWorker() {
  service::ServiceOptions options;
  options.workers = 1;
  return options;
}

TEST(UnixListenerTest, StartFailsOnOverlongPath) {
  service::CampaignService service(OneWorker());
  auto server = UnixServer(service, std::string(200, 'x') + "/daemon.sock");
  std::string error;
  EXPECT_FALSE(server->Start(&error));
  EXPECT_NE(error.find("too long"), std::string::npos) << error;
}

TEST(UnixListenerTest, StartRefusesWhenAnotherDaemonIsListening) {
  const std::string path = ScratchDir("sock_live") + "/daemon.sock";
  service::CampaignService service(OneWorker());
  auto first = UnixServer(service, path);
  std::string error;
  ASSERT_TRUE(first->Start(&error)) << error;

  // `first` is listening (Start binds + listens); a second daemon on the
  // same path must refuse instead of stealing the socket file.
  auto second = UnixServer(service, path);
  EXPECT_FALSE(second->Start(&error));
  EXPECT_NE(error.find("another daemon"), std::string::npos) << error;
  second.reset();
  EXPECT_TRUE(fs::exists(path)) << "the refused daemon removed a live file";
}

TEST(UnixListenerTest, StartReclaimsAStaleSocketFile) {
  // Simulate a crashed daemon: a socket file nobody is listening on.
  const std::string path = ScratchDir("sock_stale") + "/daemon.sock";
  std::string error;
  const int fd = Listen({"", 0, path}, &error);
  ASSERT_GE(fd, 0) << error;
  ::close(fd);  // no unlink — the file is now stale
  ASSERT_TRUE(fs::exists(path));

  service::CampaignService service(OneWorker());
  auto server = UnixServer(service, path);
  EXPECT_TRUE(server->Start(&error))
      << "a dead daemon's socket file must not wedge restarts: " << error;
}

}  // namespace
}  // namespace gpustl::net
