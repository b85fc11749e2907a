//===-- perfbench/src/Reference.cpp - Output checks -----------------------===//
//
// The histeq reference and the tolerance comparison used against every
// app's hand-written reference.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

using namespace halide;

void perfbench::histeqReference(const RawBuffer &In, const RawBuffer &Out) {
  const int W = In.Dim[0].Extent, H = In.Dim[1].Extent;
  auto Pixel = [&](int X, int Y) {
    return static_cast<const uint8_t *>(
        In.Host)[int64_t(X) * In.Dim[0].Stride + int64_t(Y) * In.Dim[1].Stride];
  };
  uint32_t Histogram[256] = {};
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ++Histogram[Pixel(X, Y)];
  uint32_t Cdf[256];
  Cdf[0] = Histogram[0];
  for (int I = 1; I < 256; ++I)
    Cdf[I] = Cdf[I - 1] + Histogram[I];
  // Same float32 operation order as the app: cdf / pixels * 255, clamped
  // to [0, 255] and truncated.
  const float Total = float(W * H);
  uint8_t *O = static_cast<uint8_t *>(Out.Host);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      float V = float(Cdf[Pixel(X, Y)]) / Total * 255.0f;
      V = std::min(std::max(V, 0.0f), 255.0f);
      O[int64_t(X) * Out.Dim[0].Stride + int64_t(Y) * Out.Dim[1].Stride] =
          uint8_t(V);
    }
}

namespace {

template <typename T> double at(const RawBuffer &B, int64_t Off) {
  return double(static_cast<const T *>(B.Host)[Off]);
}

double element(const RawBuffer &B, int64_t Off) {
  const Type &T = B.ElemType;
  if (T.isFloat())
    return T.Bits == 32 ? at<float>(B, Off) : at<double>(B, Off);
  switch (T.Bits) {
  case 8:
    return T.isUInt() ? at<uint8_t>(B, Off) : at<int8_t>(B, Off);
  case 16:
    return T.isUInt() ? at<uint16_t>(B, Off) : at<int16_t>(B, Off);
  case 32:
    return T.isUInt() ? at<uint32_t>(B, Off) : at<int32_t>(B, Off);
  default:
    return double(static_cast<const int64_t *>(B.Host)[Off]);
  }
}

} // namespace

bool perfbench::outputsMatch(const RawBuffer &Got, const RawBuffer &Want,
                             int Margin, int64_t IntTol, double FloatTol) {
  if (Got.Dimensions != Want.Dimensions || !(Got.ElemType == Want.ElemType))
    return false;
  for (int D = 0; D < Got.Dimensions; ++D)
    if (Got.Dim[D].Extent != Want.Dim[D].Extent)
      return false;
  const int W = Got.Dim[0].Extent, H = Got.Dim[1].Extent;
  const int C = Got.Dimensions > 2 ? Got.Dim[2].Extent : 1;
  if (2 * Margin >= W || 2 * Margin >= H)
    return false;
  const double Tol = Got.ElemType.isFloat() ? FloatTol : double(IntTol);
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Y = Margin; Y < H - Margin; ++Y)
      for (int X = Margin; X < W - Margin; ++X) {
        auto Offset = [&](const RawBuffer &B) {
          int64_t Off = int64_t(X) * B.Dim[0].Stride +
                        int64_t(Y) * B.Dim[1].Stride;
          return B.Dimensions > 2 ? Off + int64_t(Ch) * B.Dim[2].Stride : Off;
        };
        // Written so that a NaN on either side is a mismatch.
        if (!(std::fabs(element(Got, Offset(Got)) -
                        element(Want, Offset(Want))) <= Tol))
          return false;
      }
  return true;
}
