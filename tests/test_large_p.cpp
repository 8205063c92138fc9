// Large processor counts (P = 32/64): correctness and the Eq. 1/2 totals at
// the paper's maximum scale, plus IO round-trips added late in the suite.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/plan_compositor.hpp"
#include "image/image_io.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
using slspvr::testing::expect_images_near;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

TEST(LargeP, SixtyFourRanksMatchReference) {
  const auto subimages = make_subimages(64, 32, 32, 0.25, 4096);
  const auto order = make_default_order(6);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);
  for (const bool bsbrc : {false, true}) {
    const core::Compositor& bs = core::bs();
    const core::Compositor& brc = core::bsbrc();
    const core::Compositor& method = bsbrc ? static_cast<const core::Compositor&>(brc)
                                           : static_cast<const core::Compositor&>(bs);
    const auto result = run_method(method, subimages, order);
    expect_images_near(result.final_image, reference);
  }
}

TEST(LargeP, ThirtyTwoRanksBslc) {
  const auto subimages = make_subimages(32, 40, 24, 0.35, 888);
  const auto order = make_default_order(5);
  const auto result = run_method(core::bslc(), subimages, order);
  expect_images_near(result.final_image,
                     core::composite_reference(subimages, order.front_to_back));
}

TEST(LargeP, BinarySwapTotalsFollowTheClosedForm) {
  // Eq. 1/2 at P=64: per-PE over ops = A * (1 - 1/64); message bytes at
  // stage k = 16 * A / 2^k.
  const int a = 32 * 32;
  const auto subimages = make_subimages(64, 32, 32, 0.5, 777);
  const auto result =
      run_method(core::bs(), subimages, make_default_order(6));
  for (const auto& counters : result.per_rank) {
    EXPECT_EQ(counters.over_ops, a - a / 64);
  }
}

TEST(ImageIo, PgmRoundTrip) {
  img::Image image(16, 9);
  for (int x = 0; x < 16; ++x) {
    const float v = static_cast<float>(x) / 15.0f;
    image.at(x, 4) = img::Pixel{v, v, v, 1.0f};
  }
  const std::string path = std::filesystem::temp_directory_path() / "slspvr_rt.pgm";
  img::write_pgm(image, path);
  const img::Image back = img::read_pgm(path);
  ASSERT_EQ(back.width(), 16);
  ASSERT_EQ(back.height(), 9);
  for (int x = 1; x < 16; ++x) {  // x=0 is gray 0 -> stays blank
    EXPECT_NEAR(back.at(x, 4).r, image.at(x, 4).r, 1.0f / 255.0f);
    EXPECT_FLOAT_EQ(back.at(x, 4).a, 1.0f);
  }
  EXPECT_TRUE(img::is_blank(back.at(3, 0)));
  std::remove(path.c_str());
}

TEST(ImageIo, ReadPgmRejectsGarbage) {
  const std::string path = std::filesystem::temp_directory_path() / "slspvr_bad.pgm";
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n2 2\n255\nxxxxxxxxxxxx";
  }
  EXPECT_THROW((void)img::read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Mp, SendToSelfWorks) {
  (void)slspvr::mp::Runtime::run(2, [](slspvr::mp::Comm& comm) {
    comm.send_value(comm.rank(), 42, comm.rank() * 10 + 5);
    EXPECT_EQ(comm.recv_value<int>(comm.rank(), 42), comm.rank() * 10 + 5);
  });
}

TEST(Mp, AnyTagMatchesFirstInOrder) {
  (void)slspvr::mp::Runtime::run(2, [](slspvr::mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 70);
      comm.send_value(1, 9, 90);
    } else {
      const auto first = comm.recv_message(0, slspvr::mp::kAnyTag);
      const auto second = comm.recv_message(0, slspvr::mp::kAnyTag);
      int a, b;
      std::memcpy(&a, first.payload.data(), sizeof(a));
      std::memcpy(&b, second.payload.data(), sizeof(b));
      EXPECT_EQ(a + b, 160);
      EXPECT_NE(first.tag, second.tag);
    }
  });
}
