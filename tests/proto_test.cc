/**
 * @file
 * Tests for the orion_served wire protocol (core/proto.hh): the JSON
 * subset parser, request validation, and structured error replies.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/proto.hh"

namespace {

namespace proto = orion::core::proto;

TEST(Proto, ParsesScalars)
{
    EXPECT_EQ(proto::parseJson("true").kind,
              proto::JsonValue::Kind::Boolean);
    EXPECT_TRUE(proto::parseJson("true").boolean);
    EXPECT_EQ(proto::parseJson("null").kind,
              proto::JsonValue::Kind::Null);
    EXPECT_DOUBLE_EQ(proto::parseJson("-2.5e2").number, -250.0);
    EXPECT_EQ(proto::parseJson("\"a\\n\\u0041\"").text, "a\nA");
}

TEST(Proto, ParsesNestedStructures)
{
    const proto::JsonValue v = proto::parseJson(
        "{\"a\": [1, 2, {\"b\": \"c|d\"}], \"e\": {}}");
    ASSERT_EQ(v.kind, proto::JsonValue::Kind::Object);
    const proto::JsonValue* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_DOUBLE_EQ(a->items[1].number, 2.0);
    const proto::JsonValue* b = a->items[2].find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->text, "c|d");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Proto, RejectsMalformedDocuments)
{
    const char* bad[] = {
        "",        "{",          "[1,",       "{\"a\":}",
        "tru",     "\"unterminated", "1 2",   "{\"a\":1}x",
        "nan",     "1e999",      "\"\\q\"",   "\"\\ud800\"",
        "[\x01]",
    };
    for (const char* doc : bad) {
        EXPECT_THROW(proto::parseJson(doc), proto::ProtoError)
            << "doc: " << doc;
    }
}

TEST(Proto, RejectsDeepNesting)
{
    std::string deep;
    for (int i = 0; i < 64; ++i)
        deep += "[";
    EXPECT_THROW(proto::parseJson(deep), proto::ProtoError);
}

TEST(Proto, ParseRequestSubmit)
{
    const proto::Request r = proto::parseRequest(
        "{\"schema\":\"orion-served-v1\",\"verb\":\"submit\","
        "\"args\":[\"--preset\",\"wh64\"],\"rates\":\"0.02:0.3:8\","
        "\"timeout\":12.5}");
    EXPECT_EQ(r.verb, "submit");
    ASSERT_EQ(r.args.size(), 2u);
    EXPECT_EQ(r.args[1], "wh64");
    EXPECT_EQ(r.rates, "0.02:0.3:8");
    EXPECT_DOUBLE_EQ(r.timeoutSeconds, 12.5);
}

TEST(Proto, ParseRequestJobVerbs)
{
    for (const char* verb : {"status", "result", "cancel"}) {
        const proto::Request r = proto::parseRequest(
            std::string("{\"schema\":\"orion-served-v1\",\"verb\":"
                        "\"") +
            verb + "\",\"job\":17}");
        EXPECT_EQ(r.verb, verb);
        EXPECT_EQ(r.job, 17u);
    }
    EXPECT_EQ(
        proto::parseRequest(
            "{\"schema\":\"orion-served-v1\",\"verb\":\"stats\"}")
            .verb,
        "stats");
}

TEST(Proto, ParseRequestRejectsBadShapes)
{
    const char* bad[] = {
        // wrong/missing schema
        "{\"verb\":\"stats\"}",
        "{\"schema\":\"orion-served-v0\",\"verb\":\"stats\"}",
        // unknown verb
        "{\"schema\":\"orion-served-v1\",\"verb\":\"reboot\"}",
        // job id problems
        "{\"schema\":\"orion-served-v1\",\"verb\":\"status\"}",
        "{\"schema\":\"orion-served-v1\",\"verb\":\"status\","
        "\"job\":0}",
        "{\"schema\":\"orion-served-v1\",\"verb\":\"status\","
        "\"job\":1.5}",
        // args/timeout problems
        "{\"schema\":\"orion-served-v1\",\"verb\":\"submit\","
        "\"args\":\"--preset\"}",
        "{\"schema\":\"orion-served-v1\",\"verb\":\"submit\","
        "\"args\":[1]}",
        "{\"schema\":\"orion-served-v1\",\"verb\":\"submit\","
        "\"timeout\":-1}",
    };
    for (const char* doc : bad) {
        try {
            proto::parseRequest(doc);
            FAIL() << "accepted: " << doc;
        } catch (const proto::ProtoError& e) {
            EXPECT_EQ(e.code(), "bad_request") << doc;
        }
    }
}

TEST(Proto, ErrorReplyIsParseableAndEscaped)
{
    const std::string reply = proto::errorReply(
        "queue_full", "limit \"16\" hit\nback off");
    const proto::JsonValue v = proto::parseJson(reply);
    ASSERT_EQ(v.kind, proto::JsonValue::Kind::Object);
    EXPECT_EQ(v.find("schema")->text, proto::kSchema);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("error")->text, "queue_full");
    EXPECT_EQ(v.find("message")->text, "limit \"16\" hit\nback off");
    EXPECT_EQ(reply.find('\n'), std::string::npos)
        << "replies must stay single-line (NDJSON framing)";
}

TEST(Proto, ExpiredReplyShape)
{
    const std::string reply = proto::expiredReply(7, 1024);
    const proto::JsonValue v = proto::parseJson(reply);
    ASSERT_EQ(v.kind, proto::JsonValue::Kind::Object);
    ASSERT_EQ(v.members.size(), 4u);
    EXPECT_EQ(v.members[0].first, "schema");
    EXPECT_EQ(v.members[1].first, "ok");
    EXPECT_EQ(v.members[2].first, "error");
    EXPECT_EQ(v.members[3].first, "message");
    EXPECT_EQ(v.find("schema")->text, proto::kSchema);
    EXPECT_EQ(v.find("ok")->kind, proto::JsonValue::Kind::Boolean);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("error")->text, "expired");
    EXPECT_EQ(v.find("message")->text,
              "job 7 was retired past the 1024 newest settled jobs; "
              "resubmit it to be served from the cache");
    EXPECT_EQ(reply.find('\n'), std::string::npos);
}

TEST(Proto, JsonStringRoundTripsControlBytes)
{
    const std::string raw = "a|b\tc\x01" "d\"e\\f";
    const std::string doc = proto::jsonString(raw);
    EXPECT_EQ(proto::parseJson(doc).text, raw);
}

} // namespace
