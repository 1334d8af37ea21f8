// Tests for the remaining common utilities and the HgemmConfig contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "common/matrix.hpp"
#include "common/table.hpp"
#include "core/config.hpp"
#include "core/kernel_gen.hpp"

namespace tc {
namespace {

TEST(Matrix, RowAndColMajorIndexing) {
  HostMatrix<int> rm(3, 4, Layout::kRowMajor);
  HostMatrix<int> cm(3, 4, Layout::kColMajor);
  EXPECT_EQ(rm.index(1, 2), 6u);
  EXPECT_EQ(cm.index(1, 2), 7u);
  rm.at(2, 3) = 42;
  EXPECT_EQ(rm.data()[11], 42);
  cm.at(2, 3) = 42;
  EXPECT_EQ(cm.data()[11], 42);
  EXPECT_THROW(rm.at(3, 0), Error);
  EXPECT_THROW(rm.at(0, 4), Error);
}

TEST(Matrix, SizeBytes) {
  HalfMatrix m(10, 20);
  EXPECT_EQ(m.size(), 200u);
  EXPECT_EQ(m.size_bytes(), 400u);
}

TEST(GemmShape, Flops) {
  const GemmShape s{100, 200, 300};
  EXPECT_DOUBLE_EQ(s.flops(), 2.0 * 100 * 200 * 300);
  EXPECT_EQ(s, (GemmShape{100, 200, 300}));
  EXPECT_NE(s, (GemmShape{100, 200, 301}));
}

TEST(TablePrinter, AlignsAndRendersCsv) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("name    value"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nx,1\nlonger,22\n");
}

TEST(TablePrinter, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(FmtFixed, Rounds) {
  EXPECT_EQ(fmt_fixed(8.057, 2), "8.06");
  EXPECT_EQ(fmt_fixed(59.7, 1), "59.7");
  EXPECT_EQ(fmt_fixed(-1.005, 1), "-1.0");
}

TEST(HgemmConfig, PresetsAreValid) {
  EXPECT_NO_THROW(core::HgemmConfig::optimized().check());
  EXPECT_NO_THROW(core::HgemmConfig::cublas_like().check());
  EXPECT_EQ(core::HgemmConfig::optimized().warps(), 8);
  EXPECT_EQ(core::HgemmConfig::optimized().threads(), 256);
  EXPECT_EQ(core::HgemmConfig::cublas_like().warps(), 4);
}

TEST(HgemmConfig, RejectsBadShapes) {
  auto c = core::HgemmConfig::optimized();
  c.wk = 16;  // HMMA.1688 depth is 8
  EXPECT_THROW(c.check(), Error);

  c = core::HgemmConfig::optimized();
  c.wm = 100;  // not HMMA-shaped
  EXPECT_THROW(c.check(), Error);

  c = core::HgemmConfig::optimized();
  c.bm = 192;  // 24 row groups don't divide among 8 warps... (192/128 not integral)
  EXPECT_THROW(c.check(), Error);

  c = core::HgemmConfig::optimized();
  c.sts_interleave = 0;
  EXPECT_THROW(c.check(), Error);
}

TEST(HgemmConfig, ContractShapeRejectsPaddingOverflow) {
  const auto cfg = core::HgemmConfig::optimized();
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW((void)cfg.contract_shape({kMax, 256, 64}), Error);
  EXPECT_THROW((void)cfg.contract_shape({256, kMax - 1, 64}), Error);
  EXPECT_THROW((void)cfg.contract_shape({256, 256, kMax}), Error);
  core::HgemmConfig split = cfg;
  split.split_k = 4;
  EXPECT_THROW((void)split.contract_shape({256, 256, kMax - 2}), Error);
  // The largest shapes that still pad without wrapping are accepted.
  const auto bm = static_cast<std::size_t>(cfg.bm);
  const std::size_t m_top = kMax / bm * bm;
  const GemmShape ok = cfg.contract_shape({m_top, 256, 64});
  EXPECT_EQ(ok.m, m_top);
  try {
    (void)cfg.contract_shape({kMax, 256, 64});
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("GEMM m = 18446744073709551615"), std::string::npos)
        << e.what();
  }
}

TEST(HgemmConfig, KernelShapeMustFit32BitParameters) {
  // Generated kernels take byte strides and operand extents as signed 32-bit
  // immediates; a shape beyond them used to generate a kernel for the
  // truncated shape (m = 2^32 became m = 0).
  const auto expect_rejected = [](const GemmShape& s, const std::string& name) {
    try {
      core::check_kernel_shape(s);
      ADD_FAILURE() << name << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  };
  expect_rejected({4294967296u, 256, 64}, "GEMM m = 4294967296");
  expect_rejected({256, 256, 1u << 30}, "GEMM k = 1073741824");
  expect_rejected({65536, 256, 32768}, "GEMM m x k = 65536 x 32768");
  expect_rejected({256, 65536, 32768}, "GEMM n x k = 65536 x 32768");
  expect_rejected({32768, 32768, 64}, "GEMM m x n = 32768 x 32768");
  // The largest extents that still fit are accepted.
  core::check_kernel_shape({(1u << 30) - 1, 1, 1});
  core::check_kernel_shape({16384, 16384, 16384});
  // Generation applies the check before narrowing anything.
  const auto cfg = core::HgemmConfig::optimized();
  EXPECT_THROW((void)core::hgemm_kernel(cfg, cfg.contract_shape({4294967296u, 256, 64})),
               Error);
}

TEST(HgemmConfig, SmemFootprints) {
  // Table VII: 36 KB padded, 32 KB tile-major for 256x256x32; 32 KB for the
  // cuBLAS config.
  auto opt = core::HgemmConfig::optimized();
  EXPECT_EQ(opt.smem_bytes(), 36u * 1024);
  opt.layout = core::SmemLayout::kTileMajor;
  EXPECT_EQ(opt.smem_bytes(), 32u * 1024);
  opt.layout = core::SmemLayout::kNaiveRowMajor;
  EXPECT_EQ(opt.smem_bytes(), 32u * 1024);
  EXPECT_EQ(core::HgemmConfig::cublas_like().smem_bytes(), 32u * 1024);
}

TEST(HgemmConfig, NamesEncodeTheConfig) {
  EXPECT_EQ(core::HgemmConfig::optimized().name(), "hgemm_256x256x32_w128x64_i5_pad");
  EXPECT_EQ(core::HgemmConfig::cublas_like().name(), "hgemm_128x128x64_w64x64_i2_tile");
}

TEST(JsonWriter, NestedObjectsAndArrays) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.field("tool", "tc");
  j.field("n", 3);
  j.field("ok", true);
  j.key("rows");
  j.begin_array();
  j.value(1.5);
  j.null();
  j.begin_object();
  j.field("u", std::uint64_t{18446744073709551615ull});
  j.end_object();
  j.end_array();
  j.end_object();
  EXPECT_TRUE(j.complete());
  EXPECT_EQ(os.str(),
            R"({"tool":"tc","n":3,"ok":true,"rows":[1.5,null,{"u":18446744073709551615}]})");
}

TEST(JsonWriter, EscapesStringsAndRejectsNonFinite) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_array();
  j.value("a\"b\\c\nd\x01");
  j.value(std::numeric_limits<double>::infinity());
  j.value(std::numeric_limits<double>::quiet_NaN());
  j.end_array();
  EXPECT_EQ(os.str(), "[\"a\\\"b\\\\c\\nd\\u0001\",null,null]");
}

// json_dump(json_parse(x)) is the canonical form the persistent tuning
// cache relies on: stable under repeated round-trips, every value kind and
// escape the repo's writers emit survives intact.
TEST(JsonRoundTrip, DumpParseIsIdentityOnCanonicalForm) {
  const char* docs[] = {
      "null",
      "true",
      "[false,0,-1.5,\"\",[],{}]",
      "{\"a\":1,\"b\":[1,2,3],\"c\":{\"d\":\"e\"}}",
      "{\"schema\":\"tc-tune-cache-v1\",\"entries\":[{\"device\":\"RTX2070\",\"m\":256,"
      "\"config\":{\"prefetch\":true,\"sts_interleave\":5},\"sim_cycles\":16090}]}",
  };
  for (const char* doc : docs) {
    const std::string canonical = json_dump(json_parse(doc));
    EXPECT_EQ(json_dump(json_parse(canonical)), canonical) << doc;
  }
}

TEST(JsonRoundTrip, PreservesValueKindsAndEscapes) {
  const std::string src =
      "{\"s\":\"a\\\"b\\\\c\\nd\\t\",\"n\":-2.75,\"big\":123456789,\"t\":true,"
      "\"f\":false,\"z\":null,\"arr\":[1,\"two\",null]}";
  const JsonValue v = json_parse(json_dump(json_parse(src)));
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd\t");
  EXPECT_EQ(v.at("n").as_number(), -2.75);
  EXPECT_EQ(v.at("big").as_number(), 123456789.0);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_TRUE(v.at("t").is_bool());
  EXPECT_FALSE(v.at("n").is_bool());
  EXPECT_TRUE(v.at("z").is_null());
  ASSERT_TRUE(v.at("arr").is_array());
  EXPECT_EQ(v.at("arr").as_array().size(), 3u);
}

TEST(JsonRoundTrip, CanonicalFormSortsObjectKeys) {
  // JsonObject is an ordered map, so dump() emits keys sorted — two
  // documents with the same content in different key order canonicalize to
  // the same bytes (what makes cache files diff-able).
  EXPECT_EQ(json_dump(json_parse("{\"b\":1,\"a\":2}")),
            json_dump(json_parse("{\"a\":2,\"b\":1}")));
  EXPECT_EQ(json_dump(json_parse("{\"b\":1,\"a\":2}")), "{\"a\":2,\"b\":1}");
}

TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // 60k levels used to recurse off the end of the stack (SIGSEGV).
  const std::size_t deep = 60000;
  EXPECT_THROW((void)json_parse(std::string(deep, '[')), Error);
  std::string objects;
  for (std::size_t i = 0; i < deep; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)json_parse(objects), Error);
  // Nesting up to the limit still parses.
  const int limit = detail::JsonParser::kMaxDepth;
  const std::string ok = std::string(limit, '[') + std::string(limit, ']');
  EXPECT_TRUE(json_parse(ok).is_array());
  const std::string too_deep = "[" + ok + "]";
  EXPECT_THROW((void)json_parse(too_deep), Error);
}

TEST(JsonWriter, MisuseTripsCheck) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  EXPECT_THROW(j.value(1), Error);       // value without key inside object
  EXPECT_THROW(j.end_array(), Error);    // mismatched closer
  j.key("k");
  EXPECT_THROW(j.key("k2"), Error);      // key after key
  EXPECT_THROW(j.end_object(), Error);   // dangling key
  EXPECT_FALSE(j.complete());
}

}  // namespace
}  // namespace tc
